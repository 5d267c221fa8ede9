//! Plain-text edge-list serialization.
//!
//! The format matches the convention of the paper's published code
//! (`github.com/Cecca/ugraph`): one edge per line as
//!
//! ```text
//! # optional comments
//! u v p
//! ```
//!
//! with whitespace-separated fields, `u`/`v` non-negative node ids and `p`
//! the existence probability. Node count is inferred as `max id + 1` unless
//! a `# nodes: N` header is present (written by [`write_edge_list`] so that
//! trailing isolated nodes survive a round-trip).

use std::io::{BufRead, BufWriter, Write};

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::uncertain::UncertainGraph;

/// Reads an uncertain graph from edge-list text. A repeated edge keeps its
/// largest probability (see [`GraphBuilder`]).
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<UncertainGraph, GraphError> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    let mut max_node: Option<u32> = None;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if let Some(rest) = comment.trim().strip_prefix("nodes:") {
                let n: usize = rest.trim().parse().map_err(|_| GraphError::Parse {
                    line: lineno,
                    message: format!("invalid node count '{}'", rest.trim()),
                })?;
                declared_nodes = Some(n);
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (u, v, p) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(u), Some(v), Some(p), None) => (u, v, p),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("expected 'u v p', got '{trimmed}'"),
                })
            }
        };
        let u: u32 = u.parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid node id '{u}'"),
        })?;
        let v: u32 = v.parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid node id '{v}'"),
        })?;
        let p: f64 = p.parse().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid probability '{p}'"),
        })?;
        max_node = Some(max_node.map_or(u.max(v), |m| m.max(u).max(v)));
        edges.push((u, v, p));
    }

    let inferred = max_node.map_or(0, |m| m as usize + 1);
    let n = declared_nodes.map_or(inferred, |d| d.max(inferred));
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, p) in edges {
        b.add_edge(u, v, p)?;
    }
    b.build()
}

/// Writes `g` in edge-list format, including a `# nodes: N` header.
pub fn write_edge_list<W: Write>(g: &UncertainGraph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# nodes: {}", g.num_nodes())?;
    for (_, u, v, p) in g.edges() {
        writeln!(out, "{u} {v} {p}")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn parses_simple_file() {
        let text = "# a comment\n0 1 0.5\n1 2 0.25\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.probs(), &[0.5, 0.25]);
    }

    #[test]
    fn nodes_header_preserves_isolated_tail() {
        let text = "# nodes: 5\n0 1 0.5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(NodeId(4)), 0);
    }

    #[test]
    fn nodes_header_never_truncates() {
        let text = "# nodes: 2\n0 4 0.5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 5);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["0 1", "0 1 0.5 9", "x 1 0.5", "0 y 0.5", "0 1 zebra"] {
            let err = read_edge_list(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "input '{bad}' -> {err}");
        }
    }

    #[test]
    fn rejects_invalid_probability_via_builder() {
        let err = read_edge_list("0 1 1.5".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let text = "# nodes: 6\n0 1 0.5\n1 2 0.25\n4 5 0.125\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_follow_policy() {
        let text = "0 1 0.3\n0 1 0.6\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.probs()[0], 0.6);
    }
}

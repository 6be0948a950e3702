//! Rendering graphs as Graphviz DOT and ASCII adjacency listings.
//!
//! The paper presents every discovered pattern as a small figure
//! (Figures 1–4); these helpers regenerate equivalent artifacts.

use crate::graph::Graph;
use std::fmt::Write as _;

/// Renders a graph as Graphviz DOT (`digraph`), labeling vertices with
/// their vertex label and edges with their edge label.
///
/// `name` must be a valid DOT identifier (alphanumeric/underscore).
pub fn to_dot(g: &Graph, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph {name} {{");
    let _ = writeln!(s, "  rankdir=LR;");
    for v in g.vertices() {
        let _ = writeln!(s, "  n{} [label=\"{}\"];", v.0, g.vertex_label(v).0);
    }
    for e in g.edges() {
        let (src, dst, l) = g.edge(e);
        let _ = writeln!(s, "  n{} -> n{} [label=\"{}\"];", src.0, dst.0, l.0);
    }
    s.push_str("}\n");
    s
}

/// An ASCII-art adjacency rendering for small patterns — the report
/// format used by the experiment binaries.
pub fn to_ascii(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "pattern: {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    );
    for e in g.edges() {
        let (src, dst, l) = g.edge(e);
        let _ = writeln!(
            s,
            "  ({}:{}) --[{}]--> ({}:{})",
            src.0,
            g.vertex_label(src).0,
            l.0,
            dst.0,
            g.vertex_label(dst).0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::shapes;

    #[test]
    fn dot_contains_all_elements() {
        let g = shapes::hub_and_spoke(2, 5, 9);
        let dot = to_dot(&g, "hub");
        assert!(dot.starts_with("digraph hub {"));
        assert_eq!(dot.matches("label=\"5\"").count(), 3); // 3 vertices
        assert_eq!(dot.matches("label=\"9\"").count(), 2); // 2 edges
        assert_eq!(dot.matches("->").count(), 2);
    }

    #[test]
    fn ascii_mentions_counts() {
        let g = shapes::cycle(3, 0, 2);
        let a = to_ascii(&g);
        assert!(a.contains("3 vertices, 3 edges"));
    }
}

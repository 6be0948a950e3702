//! Traversals and connectivity.
//!
//! All traversals treat the graph as *weakly* connected (edges are walked in
//! both directions) — that is what both SUBDUE's expansion and the paper's
//! partitioners need: a truck route is "connected" regardless of edge
//! direction.

use crate::graph::{ELabel, Graph, VertexId};
use crate::hash::FxHashSet;
use crate::view::GraphView;
use std::collections::VecDeque;

/// Vertices reachable from `start` following edges in either direction,
/// in breadth-first order (including `start`).
pub fn bfs_reachable(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for e in g.incident_edges(v) {
            let (s, d, _) = g.edge(e);
            let other = if s == v { d } else { s };
            if seen.insert(other) {
                queue.push_back(other);
            }
        }
    }
    order
}

/// Weakly connected components; each component is a sorted vector of
/// vertex ids. Components are returned largest first.
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    let mut comps = Vec::new();
    for v in g.vertices() {
        if seen.contains(&v) {
            continue;
        }
        let mut comp = bfs_reachable(g, v);
        for &u in &comp {
            seen.insert(u);
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
    comps
}

/// True if every live vertex is reachable from every other ignoring
/// direction. The empty graph and single vertices count as connected.
pub fn is_connected(g: &Graph) -> bool {
    match g.vertices().next() {
        None => true,
        Some(v0) => bfs_reachable(g, v0).len() == g.vertex_count(),
    }
}

/// Splits a graph into one graph per weakly connected component.
///
/// Used by temporal partitioning (§6): "we further broke each disconnected
/// graph transaction into multiple connected graph transactions".
pub fn split_components(g: &Graph) -> Vec<Graph> {
    connected_components(g)
        .into_iter()
        .map(|comp| g.induced_subgraph(&comp).0)
        .collect()
}

/// Counts directed walks whose consecutive edge labels spell `labels`.
///
/// A walk of length `k` is a vertex/edge alternation `v0 -e1-> v1 ...
/// -ek-> vk` with `label(ei) = labels[i-1]`; vertices and edges may
/// repeat. Counting runs as a dynamic program over the per-vertex
/// walk-end counts, so cost is `O(k · |E|)` regardless of how many walks
/// exist, and the count saturates at `u64::MAX` instead of overflowing.
///
/// This is the `tnet-serve` support query: on an OD graph a label
/// sequence is a chain of binned legs (e.g. "heavy load into a short
/// haul"), and the walk count is its occurrence support in the pinned
/// snapshot. An empty `labels` counts the empty walks, one per vertex.
pub fn count_label_walks<G: GraphView>(g: &G, labels: &[ELabel]) -> u64 {
    if labels.is_empty() {
        return g.vertex_count() as u64;
    }
    // ends[v] = number of walks matching the prefix consumed so far that
    // end at v, indexed by raw id (a tombstoned arena can have live ids
    // past vertex_count, so size by the largest id, not the live count).
    let slots = g.vertices().last().map_or(0, |v| v.index() + 1);
    let mut ends = vec![0u64; slots];
    for e in g.edges() {
        if g.edge_label(e) == labels[0] {
            let d = g.edge_dst(e).index();
            ends[d] = ends[d].saturating_add(1);
        }
    }
    let mut next = vec![0u64; slots];
    for &want in &labels[1..] {
        next.iter_mut().for_each(|n| *n = 0);
        for (v, &n) in ends.iter().enumerate() {
            if n == 0 {
                continue;
            }
            for e in g.out_edges(crate::graph::VertexId(v as u32)) {
                if g.edge_label(e) == want {
                    let d = g.edge_dst(e).index();
                    next[d] = next[d].saturating_add(n);
                }
            }
        }
        std::mem::swap(&mut ends, &mut next);
    }
    ends.iter().fold(0u64, |acc, &n| acc.saturating_add(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ELabel, VLabel};

    /// Two components: a directed path a->b->c and an isolated pair d->e.
    fn two_components() -> (Graph, [VertexId; 5]) {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        let c = g.add_vertex(VLabel(0));
        let d = g.add_vertex(VLabel(0));
        let e = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(0));
        g.add_edge(b, c, ELabel(0));
        g.add_edge(d, e, ELabel(0));
        (g, [a, b, c, d, e])
    }

    #[test]
    fn bfs_ignores_direction() {
        let (g, [a, b, c, ..]) = two_components();
        // Starting from c we can still reach a by walking edges backwards.
        let r = bfs_reachable(&g, c);
        assert_eq!(r.len(), 3);
        assert!(r.contains(&a) && r.contains(&b));
    }

    #[test]
    fn components_largest_first() {
        let (g, _) = two_components();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn connectivity() {
        let (mut g, [_, _, _, d, e]) = two_components();
        assert!(!is_connected(&g));
        g.remove_vertex(d);
        g.remove_vertex(e);
        assert!(is_connected(&g));
        let empty = Graph::new();
        assert!(is_connected(&empty));
    }

    #[test]
    fn split_into_component_graphs() {
        let (g, _) = two_components();
        let parts = split_components(&g);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].vertex_count(), 3);
        assert_eq!(parts[0].edge_count(), 2);
        assert_eq!(parts[1].vertex_count(), 2);
        assert_eq!(parts[1].edge_count(), 1);
    }

    #[test]
    fn isolated_vertex_is_own_component() {
        let mut g = Graph::new();
        g.add_vertex(VLabel(0));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 1);
    }

    /// Diamond with labeled legs: a -0-> b -1-> d and a -0-> c -1-> d,
    /// plus a stray a -2-> d.
    fn labeled_diamond() -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        let c = g.add_vertex(VLabel(0));
        let d = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(0));
        g.add_edge(a, c, ELabel(0));
        g.add_edge(b, d, ELabel(1));
        g.add_edge(c, d, ELabel(1));
        g.add_edge(a, d, ELabel(2));
        g
    }

    #[test]
    fn walk_counts_by_label_sequence() {
        let g = labeled_diamond();
        assert_eq!(count_label_walks(&g, &[]), 4, "one empty walk per vertex");
        assert_eq!(count_label_walks(&g, &[ELabel(0)]), 2);
        assert_eq!(count_label_walks(&g, &[ELabel(2)]), 1);
        assert_eq!(count_label_walks(&g, &[ELabel(0), ELabel(1)]), 2);
        assert_eq!(count_label_walks(&g, &[ELabel(1), ELabel(0)]), 0);
        assert_eq!(count_label_walks(&g, &[ELabel(9)]), 0);
    }

    #[test]
    fn walk_counts_agree_between_arena_and_frozen() {
        let mut g = labeled_diamond();
        // Tombstone a vertex so the arena has dead slots past the live
        // count — the frozen snapshot compacts them away.
        let dead = g.add_vertex(VLabel(0));
        g.remove_vertex(dead);
        let fg = g.freeze();
        let fg = fg.view();
        for labels in [
            vec![],
            vec![ELabel(0)],
            vec![ELabel(0), ELabel(1)],
            vec![ELabel(2), ELabel(1)],
        ] {
            assert_eq!(
                count_label_walks(&g, &labels),
                count_label_walks(&fg, &labels),
                "labels {labels:?}"
            );
        }
    }

    #[test]
    fn walk_counts_follow_multigraph_multiplicity() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        let c = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(0));
        g.add_edge(a, b, ELabel(0));
        g.add_edge(b, c, ELabel(0));
        // Two parallel first legs times one second leg.
        assert_eq!(count_label_walks(&g, &[ELabel(0), ELabel(0)]), 2);
    }
}

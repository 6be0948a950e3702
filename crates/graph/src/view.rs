//! Read-only graph access shared by the builder and frozen snapshots.
//!
//! Every consumer downstream of construction — the VF2 matcher, embedding
//! extension, SUBDUE's instance expansion, vertex fingerprints — only
//! *reads* structure. [`GraphView`] captures exactly that surface so one
//! generic implementation serves the tombstone arena ([`Graph`]) and the
//! frozen CSR form: per-transaction views ([`crate::frozen::TxnRef`]) into a
//! packed [`crate::frozen::TxnSet`], which is also what a single frozen
//! graph ([`crate::frozen::FrozenGraph::view`]) reads through.
//!
//! Ordering contract (load-bearing for determinism): `vertices()`,
//! `edges()`, `out_edges()`, and `in_edges()` yield ids in **ascending id
//! order** on every implementation. The arena satisfies this because
//! adjacency lists are append-ordered and ids are never reused; the
//! frozen form satisfies it by construction. Miners rely on this so that
//! freezing a (dense) graph never reorders candidate enumeration.
//!
//! The `visit_*_matching` hooks are the optimization seam: the default
//! implementations linearly filter adjacency (what the arena can do), and
//! the frozen form overrides them with binary searches over label-sorted
//! adjacency. Both yield matches in ascending edge-id order, so swapping
//! representations cannot change miner output. Vertex fingerprints are
//! not a view method: [`crate::fingerprint::vertex_fingerprint`] computes
//! them from this surface on demand, alike on every representation.

use crate::graph::{ELabel, Graph, VLabel};
use crate::graph::{EdgeId, VertexId};
use crate::hash::FxHashMap;

/// Read-only view of a labeled directed multigraph.
///
/// See the module docs for the iteration-order contract.
pub trait GraphView {
    /// Number of (live) vertices.
    fn vertex_count(&self) -> usize;

    /// Number of (live) edges.
    fn edge_count(&self) -> usize;

    /// `vertex_count() + edge_count()` — SUBDUE's "size" of a graph.
    fn size(&self) -> usize {
        self.vertex_count() + self.edge_count()
    }

    /// Iterator over vertex ids, ascending.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_;

    /// Iterator over edge ids, ascending.
    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_;

    /// Label of a vertex.
    fn vertex_label(&self, v: VertexId) -> VLabel;

    /// `(src, dst, label)` of an edge.
    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel);

    /// Source vertex of an edge.
    fn edge_src(&self, e: EdgeId) -> VertexId {
        self.edge(e).0
    }

    /// Destination vertex of an edge.
    fn edge_dst(&self, e: EdgeId) -> VertexId {
        self.edge(e).1
    }

    /// Label of an edge.
    fn edge_label(&self, e: EdgeId) -> ELabel {
        self.edge(e).2
    }

    /// Out-edges of `v`, ascending by edge id.
    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_;

    /// In-edges of `v`, ascending by edge id.
    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_;

    /// All edges incident to `v` (out first, then in; a self-loop appears
    /// twice).
    fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges(v).chain(self.in_edges(v))
    }

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).count()
    }

    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).count()
    }

    /// Total degree (self-loops count twice).
    fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Visits `(edge, dst)` for every out-edge of `v` with edge label
    /// `el` whose destination has vertex label `vl`, in ascending
    /// edge-id order. Frozen implementations binary-search their
    /// label-sorted candidate slice instead of scanning.
    fn visit_out_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        for e in self.out_edges(v) {
            let (_, d, l) = self.edge(e);
            if l == el && self.vertex_label(d) == vl {
                f(e, d);
            }
        }
    }

    /// Mirror of [`GraphView::visit_out_matching`] for in-edges: visits
    /// `(edge, src)` for in-edges of `v` labeled `el` whose source has
    /// vertex label `vl`.
    fn visit_in_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        for e in self.in_edges(v) {
            let (s, _, l) = self.edge(e);
            if l == el && self.vertex_label(s) == vl {
                f(e, s);
            }
        }
    }

    /// Number of edges [`GraphView::visit_out_matching`] would visit.
    /// Frozen implementations return the length of their binary-searched
    /// run without walking it.
    fn count_out_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        let mut n = 0;
        self.visit_out_matching(v, el, vl, &mut |_, _| n += 1);
        n
    }

    /// Number of edges [`GraphView::visit_in_matching`] would visit.
    fn count_in_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        let mut n = 0;
        self.visit_in_matching(v, el, vl, &mut |_, _| n += 1);
        n
    }

    /// True if at least one edge `s -> d` with label `el` exists.
    fn has_edge_labeled(&self, s: VertexId, d: VertexId, el: ELabel) -> bool {
        self.out_edges(s).any(|e| {
            let (_, dd, l) = self.edge(e);
            dd == d && l == el
        })
    }

    /// True if the graph is known to be *simple*: no `(src, dst, label)`
    /// triple repeats (self-loops are allowed). Frozen forms record this
    /// at freeze time; the mutable arena answers `false` ("may repeat").
    /// Callers use it only to skip duplicate-endpoint checks, so `false`
    /// is always a correct answer.
    fn is_simple(&self) -> bool {
        false
    }

    /// Multiset of vertex labels with frequencies.
    fn vertex_label_histogram(&self) -> FxHashMap<VLabel, usize> {
        let mut h: FxHashMap<VLabel, usize> = FxHashMap::default();
        for v in self.vertices() {
            *h.entry(self.vertex_label(v)).or_insert(0) += 1;
        }
        h
    }

    /// Multiset of edge labels with frequencies.
    fn edge_label_histogram(&self) -> FxHashMap<ELabel, usize> {
        let mut h: FxHashMap<ELabel, usize> = FxHashMap::default();
        for e in self.edges() {
            *h.entry(self.edge_label(e)).or_insert(0) += 1;
        }
        h
    }
}

impl GraphView for Graph {
    fn vertex_count(&self) -> usize {
        Graph::vertex_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        Graph::vertices(self)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        Graph::edges(self)
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        Graph::vertex_label(self, v)
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        Graph::edge(self, e)
    }

    fn edge_src(&self, e: EdgeId) -> VertexId {
        Graph::edge_src(self, e)
    }

    fn edge_dst(&self, e: EdgeId) -> VertexId {
        Graph::edge_dst(self, e)
    }

    fn edge_label(&self, e: EdgeId) -> ELabel {
        Graph::edge_label(self, e)
    }

    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        Graph::out_edges(self, v)
    }

    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        Graph::in_edges(self, v)
    }
}

impl<T: GraphView + ?Sized> GraphView for &T {
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (**self).vertices()
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (**self).edges()
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        (**self).vertex_label(v)
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        (**self).edge(e)
    }

    fn edge_src(&self, e: EdgeId) -> VertexId {
        (**self).edge_src(e)
    }

    fn edge_dst(&self, e: EdgeId) -> VertexId {
        (**self).edge_dst(e)
    }

    fn edge_label(&self, e: EdgeId) -> ELabel {
        (**self).edge_label(e)
    }

    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        (**self).out_edges(v)
    }

    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        (**self).in_edges(v)
    }

    fn out_degree(&self, v: VertexId) -> usize {
        (**self).out_degree(v)
    }

    fn in_degree(&self, v: VertexId) -> usize {
        (**self).in_degree(v)
    }

    fn visit_out_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        (**self).visit_out_matching(v, el, vl, f)
    }

    fn visit_in_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        (**self).visit_in_matching(v, el, vl, f)
    }

    fn count_out_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        (**self).count_out_matching(v, el, vl)
    }

    fn count_in_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        (**self).count_in_matching(v, el, vl)
    }

    fn has_edge_labeled(&self, s: VertexId, d: VertexId, el: ELabel) -> bool {
        (**self).has_edge_labeled(s, d, el)
    }

    fn is_simple(&self) -> bool {
        (**self).is_simple()
    }
}

/// Builds the subgraph consisting of the given edges plus their
/// endpoints, from any view. Vertex numbering is by first appearance in
/// `edge_ids` — identical to [`Graph::edge_subgraph`].
///
/// Returns the new builder graph and the `view id -> new id` mapping.
pub fn edge_subgraph<G: GraphView>(
    g: &G,
    edge_ids: &[EdgeId],
) -> (Graph, FxHashMap<VertexId, VertexId>) {
    let mut vmap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
    let mut out = Graph::new();
    for &e in edge_ids {
        let (s, d, l) = g.edge(e);
        let ns = *vmap
            .entry(s)
            .or_insert_with(|| out.add_vertex(g.vertex_label(s)));
        let nd = *vmap
            .entry(d)
            .or_insert_with(|| out.add_vertex(g.vertex_label(d)));
        out.add_edge(ns, nd, l);
    }
    (out, vmap)
}

/// Provider of graph transactions for the miners: either a plain slice of
/// arena graphs or a packed [`crate::frozen::TxnSet`]. The associated
/// view type is what support counting traverses.
pub trait TxnSource: Sync {
    /// Per-transaction read view.
    type View<'a>: GraphView + Copy + Sync
    where
        Self: 'a;

    /// Number of transactions.
    fn txn_count(&self) -> usize;

    /// View of transaction `i`.
    fn txn(&self, i: usize) -> Self::View<'_>;
}

impl TxnSource for [Graph] {
    type View<'a> = &'a Graph;

    fn txn_count(&self) -> usize {
        self.len()
    }

    fn txn(&self, i: usize) -> Self::View<'_> {
        &self[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ELabel, VLabel};

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(1));
        let b = g.add_vertex(VLabel(2));
        let c = g.add_vertex(VLabel(2));
        g.add_edge(a, b, ELabel(5));
        g.add_edge(a, c, ELabel(5));
        g.add_edge(b, c, ELabel(6));
        g
    }

    #[test]
    fn arena_implements_view() {
        let g = sample();
        let v: &dyn Fn(&Graph) -> usize = &|g| GraphView::vertex_count(g);
        assert_eq!(v(&g), 3);
        let a = VertexId(0);
        let mut hits = Vec::new();
        g.visit_out_matching(a, ELabel(5), VLabel(2), &mut |e, d| hits.push((e, d)));
        assert_eq!(hits.len(), 2);
        assert!(hits[0].0 < hits[1].0, "ascending edge-id order");
        assert!(g.has_edge_labeled(VertexId(1), VertexId(2), ELabel(6)));
        assert!(!g.has_edge_labeled(VertexId(1), VertexId(2), ELabel(5)));
    }

    #[test]
    fn edge_subgraph_matches_inherent() {
        let g = sample();
        let ids: Vec<EdgeId> = Graph::edges(&g).collect();
        let (a, _) = g.edge_subgraph(&ids);
        let (b, _) = edge_subgraph(&g, &ids);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn slice_txn_source() {
        let txns = vec![sample(), sample()];
        let src: &[Graph] = &txns;
        assert_eq!(src.txn_count(), 2);
        assert_eq!(GraphView::edge_count(&src.txn(1)), 3);
    }
}

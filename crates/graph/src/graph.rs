//! Arena-based labeled directed multigraph.
//!
//! This is the substrate every miner in the workspace operates on. Design
//! points, driven by the workloads in the paper:
//!
//! * **Directed multigraph.** Transportation data routinely has several
//!   deliveries between the same origin and destination; each becomes its
//!   own edge (§3 of the paper models the data as "perhaps a multigraph").
//! * **Small integer labels.** Labels are pre-binned interval ids or
//!   location ids, so a `u32` newtype suffices; meaning lives with the
//!   producer (bin boundaries in `tnet-data`, locations in the OD maps).
//! * **Tombstone deletion.** The BF/DF partitioners (Algorithm 2) peel
//!   edges off a working copy of the graph; deletion must be O(degree)
//!   without invalidating other ids mid-walk.
//!
//! The arena is the **builder** half of a two-representation lifecycle:
//! construct and mutate here, then [`GraphBuilder::freeze`] into an
//! immutable [`crate::frozen::FrozenGraph`] CSR snapshot for the read-only
//! mining phase. Freezing is one-way: nothing reads a snapshot back into
//! a builder.
//! `Graph` remains an alias for [`GraphBuilder`] because small append-only
//! pattern graphs — which are never frozen — are the pervasive currency of
//! the miners.

use crate::frozen::FrozenGraph;
use crate::hash::{FxHashMap, FxHashSet};
use std::fmt;

/// Identifier of a vertex within one [`Graph`]. Stable across edge removals.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of an edge within one [`Graph`]. Stable across removals.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// A vertex label (e.g. a coalesced location id, or `0` for "uniform").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct VLabel(pub u32);

/// An edge label (e.g. a weight/hours/distance bin id).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct ELabel(pub u32);

impl VertexId {
    #[inline]
    /// Arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    #[inline]
    /// Arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct VertexData {
    label: VLabel,
    /// Edge ids leaving this vertex. May contain tombstoned ids; filtered on read.
    out: Vec<EdgeId>,
    /// Edge ids entering this vertex.
    inc: Vec<EdgeId>,
    alive: bool,
}

#[derive(Clone, Copy, Debug)]
struct EdgeData {
    src: VertexId,
    dst: VertexId,
    label: ELabel,
    alive: bool,
}

/// A labeled directed multigraph (the mutable **builder** arena).
///
/// Vertices and edges live in arenas and are addressed by [`VertexId`] /
/// [`EdgeId`]. Removal tombstones the slot; ids are never reused, so a
/// removal cannot invalidate an id held elsewhere (it merely makes
/// `contains_*` return `false`).
#[derive(Clone, Default)]
pub struct GraphBuilder {
    vertices: Vec<VertexData>,
    edges: Vec<EdgeData>,
    live_vertices: usize,
    live_edges: usize,
}

/// The builder arena under its historical name. Miners build and pass
/// small pattern graphs constantly; the short alias keeps that code
/// readable while `GraphBuilder` names the role in the freeze lifecycle.
pub type Graph = GraphBuilder;

impl GraphBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with pre-reserved capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Graph {
            vertices: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            live_vertices: 0,
            live_edges: 0,
        }
    }

    /// Number of live vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.live_vertices
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// `vertex_count() + edge_count()` — SUBDUE's "size" of a graph.
    #[inline]
    pub fn size(&self) -> usize {
        self.live_vertices + self.live_edges
    }

    /// True if the graph has no live vertices.
    pub fn is_empty(&self) -> bool {
        self.live_vertices == 0
    }

    /// Adds a vertex with the given label and returns its id.
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(VertexData {
            label,
            out: Vec::new(),
            inc: Vec::new(),
            alive: true,
        });
        self.live_vertices += 1;
        id
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// Parallel edges (same endpoints, any labels) are allowed.
    ///
    /// # Panics
    /// Panics if either endpoint is dead or out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: ELabel) -> EdgeId {
        assert!(self.contains_vertex(src), "add_edge: dead src {src:?}");
        assert!(self.contains_vertex(dst), "add_edge: dead dst {dst:?}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            src,
            dst,
            label,
            alive: true,
        });
        self.vertices[src.index()].out.push(id);
        self.vertices[dst.index()].inc.push(id);
        self.live_edges += 1;
        id
    }

    /// True if `v` refers to a live vertex.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.get(v.index()).is_some_and(|d| d.alive)
    }

    /// True if `e` refers to a live edge.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|d| d.alive)
    }

    /// Label of a live vertex.
    ///
    /// # Panics
    /// Panics if `v` is dead or out of range.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> VLabel {
        let d = &self.vertices[v.index()];
        debug_assert!(d.alive, "vertex_label on dead {v:?}");
        d.label
    }

    /// Replaces the label of a live vertex.
    pub fn set_vertex_label(&mut self, v: VertexId, label: VLabel) {
        debug_assert!(self.contains_vertex(v));
        self.vertices[v.index()].label = label;
    }

    /// `(src, dst, label)` of a live edge.
    ///
    /// # Panics
    /// Panics if `e` is dead or out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        let d = &self.edges[e.index()];
        debug_assert!(d.alive, "edge() on dead {e:?}");
        (d.src, d.dst, d.label)
    }

    /// Source vertex of a live edge.
    #[inline]
    pub fn edge_src(&self, e: EdgeId) -> VertexId {
        self.edges[e.index()].src
    }

    /// Destination vertex of a live edge.
    #[inline]
    pub fn edge_dst(&self, e: EdgeId) -> VertexId {
        self.edges[e.index()].dst
    }

    /// Label of a live edge.
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> ELabel {
        self.edges[e.index()].label
    }

    /// Iterator over live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .map(|(i, _)| VertexId(i as u32))
    }

    /// Iterator over live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Live out-edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.vertices[v.index()]
            .out
            .iter()
            .copied()
            .filter(|&e| self.edges[e.index()].alive)
    }

    /// Live in-edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.vertices[v.index()]
            .inc
            .iter()
            .copied()
            .filter(|&e| self.edges[e.index()].alive)
    }

    /// All live edges incident to `v` (out first, then in). A self-loop
    /// appears twice.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges(v).chain(self.in_edges(v))
    }

    /// Out-degree of `v` (live edges only).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).count()
    }

    /// In-degree of `v` (live edges only).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).count()
    }

    /// Total degree (in + out; self-loops count twice).
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Removes an edge. No-op if already dead.
    pub fn remove_edge(&mut self, e: EdgeId) {
        if let Some(d) = self.edges.get_mut(e.index()) {
            if d.alive {
                d.alive = false;
                self.live_edges -= 1;
            }
        }
    }

    /// Removes a vertex and all incident edges. No-op if already dead.
    pub fn remove_vertex(&mut self, v: VertexId) {
        if !self.contains_vertex(v) {
            return;
        }
        let incident: Vec<EdgeId> = self.incident_edges(v).collect();
        for e in incident {
            self.remove_edge(e);
        }
        self.vertices[v.index()].alive = false;
        self.live_vertices -= 1;
    }

    /// Removes every live vertex with no live incident edges ("orphans",
    /// the cleanup step of Algorithm 2). Returns how many were removed.
    pub fn remove_orphans(&mut self) -> usize {
        let orphans: Vec<VertexId> = self
            .vertices()
            .filter(|&v| self.incident_edges(v).next().is_none())
            .collect();
        let n = orphans.len();
        for v in orphans {
            self.vertices[v.index()].alive = false;
            self.live_vertices -= 1;
        }
        n
    }

    /// Compacts tombstones away, renumbering vertices and edges densely.
    ///
    /// Returns the mapping `old VertexId -> new VertexId` for live vertices.
    /// Use after heavy removal to shrink memory and speed up iteration.
    pub fn compact(&mut self) -> FxHashMap<VertexId, VertexId> {
        let mut vmap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        let mut out = Graph::with_capacity(self.live_vertices, self.live_edges);
        for v in self.vertices() {
            let nv = out.add_vertex(self.vertex_label(v));
            vmap.insert(v, nv);
        }
        for e in self.edges() {
            let (s, d, l) = self.edge(e);
            out.add_edge(vmap[&s], vmap[&d], l);
        }
        *self = out;
        vmap
    }

    /// Builds the subgraph consisting of the given edges plus their
    /// endpoints. Vertex/edge labels are preserved; ids are renumbered.
    ///
    /// Returns the new graph and the `old -> new` vertex mapping.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> (Graph, FxHashMap<VertexId, VertexId>) {
        let mut vmap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        let mut g = Graph::new();
        for &e in edge_ids {
            let (s, d, l) = self.edge(e);
            let ns = *vmap
                .entry(s)
                .or_insert_with(|| g.add_vertex(self.vertex_label(s)));
            let nd = *vmap
                .entry(d)
                .or_insert_with(|| g.add_vertex(self.vertex_label(d)));
            g.add_edge(ns, nd, l);
        }
        (g, vmap)
    }

    /// Builds the subgraph induced by the given vertices: those vertices
    /// plus every live edge whose endpoints are both in the set.
    ///
    /// Returns the new graph and the `old -> new` vertex mapping.
    pub fn induced_subgraph(
        &self,
        vertex_ids: &[VertexId],
    ) -> (Graph, FxHashMap<VertexId, VertexId>) {
        let keep: FxHashSet<VertexId> = vertex_ids.iter().copied().collect();
        let mut vmap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        let mut g = Graph::new();
        for &v in vertex_ids {
            if self.contains_vertex(v) && !vmap.contains_key(&v) {
                let nv = g.add_vertex(self.vertex_label(v));
                vmap.insert(v, nv);
            }
        }
        for e in self.edges() {
            let (s, d, l) = self.edge(e);
            if keep.contains(&s) && keep.contains(&d) {
                g.add_edge(vmap[&s], vmap[&d], l);
            }
        }
        (g, vmap)
    }

    /// Collapses parallel edges: keeps only the first edge for each
    /// `(src, dst, label)` triple. Returns the number of edges removed.
    ///
    /// FSG operates on simple graphs, "we also had to remove duplicate
    /// edges within each transaction" (§6).
    pub fn dedup_edges(&mut self) -> usize {
        let mut seen: FxHashSet<(VertexId, VertexId, ELabel)> = FxHashSet::default();
        let dupes: Vec<EdgeId> = self
            .edges()
            .filter(|&e| {
                let key = self.edge(e);
                !seen.insert(key)
            })
            .collect();
        let n = dupes.len();
        for e in dupes {
            self.remove_edge(e);
        }
        n
    }

    /// Collapses parallel edges regardless of label: keeps one edge per
    /// `(src, dst)` pair (the first encountered). Returns edges removed.
    pub fn dedup_edges_ignore_label(&mut self) -> usize {
        let mut seen: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
        let dupes: Vec<EdgeId> = self
            .edges()
            .filter(|&e| {
                let (s, d, _) = self.edge(e);
                !seen.insert((s, d))
            })
            .collect();
        let n = dupes.len();
        for e in dupes {
            self.remove_edge(e);
        }
        n
    }

    /// Sets every vertex label to `label` (the paper's §5 structural mode:
    /// "we assign all vertices the same label").
    pub fn uniform_vertex_labels(&mut self, label: VLabel) {
        for d in self.vertices.iter_mut().filter(|d| d.alive) {
            d.label = label;
        }
    }

    /// Multiset of distinct vertex labels with their frequencies.
    pub fn vertex_label_histogram(&self) -> FxHashMap<VLabel, usize> {
        let mut h: FxHashMap<VLabel, usize> = FxHashMap::default();
        for v in self.vertices() {
            *h.entry(self.vertex_label(v)).or_insert(0) += 1;
        }
        h
    }

    /// Multiset of distinct edge labels with their frequencies.
    pub fn edge_label_histogram(&self) -> FxHashMap<ELabel, usize> {
        let mut h: FxHashMap<ELabel, usize> = FxHashMap::default();
        for e in self.edges() {
            *h.entry(self.edge_label(e)).or_insert(0) += 1;
        }
        h
    }

    /// Snapshots the live structure into an immutable, compacted
    /// [`FrozenGraph`]: a one-transaction [`crate::frozen::TxnSet`] with
    /// dense ids in live-id order (the numbering [`Self::compact`]
    /// produces) and label-sorted CSR adjacency, read through
    /// [`FrozenGraph::view`]. The builder is untouched.
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::freeze(self)
    }
}

impl fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graph {{ |V|={}, |E|={} }}",
            self.live_vertices, self.live_edges
        )?;
        for e in self.edges() {
            let (s, d, l) = self.edge(e);
            writeln!(
                f,
                "  {s:?}({}) -[{}]-> {d:?}({})",
                self.vertex_label(s).0,
                l.0,
                self.vertex_label(d).0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [VertexId; 3], [EdgeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(1));
        let b = g.add_vertex(VLabel(2));
        let c = g.add_vertex(VLabel(3));
        let e1 = g.add_edge(a, b, ELabel(10));
        let e2 = g.add_edge(b, c, ELabel(11));
        let e3 = g.add_edge(c, a, ELabel(12));
        (g, [a, b, c], [e1, e2, e3])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c], [e1, ..]) = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.vertex_label(a), VLabel(1));
        assert_eq!(g.edge(e1), (a, b, ELabel(10)));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.out_edges(b).count(), 1);
        assert_eq!(g.in_edges(c).count(), 1);
    }

    #[test]
    fn multigraph_parallel_edges() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(1));
        g.add_edge(a, b, ELabel(1));
        g.add_edge(a, b, ELabel(2));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 3);
        let removed = g.dedup_edges();
        assert_eq!(removed, 1, "only the identical-label duplicate goes");
        assert_eq!(g.edge_count(), 2);
        let mut g2 = g.clone();
        let removed2 = g2.dedup_edges_ignore_label();
        assert_eq!(removed2, 1);
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn remove_edge_updates_degrees() {
        let (mut g, [a, b, _], [e1, ..]) = triangle();
        g.remove_edge(e1);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.contains_edge(e1));
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.in_degree(b), 0);
        // Removing again is a no-op.
        g.remove_edge(e1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn remove_vertex_cascades() {
        let (mut g, [a, b, c], _) = triangle();
        g.remove_vertex(b);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1); // only c -> a survives
        assert!(g.contains_vertex(a) && g.contains_vertex(c));
        let e = g.edges().next().unwrap();
        assert_eq!(g.edge(e), (c, a, ELabel(12)));
    }

    #[test]
    fn remove_orphans() {
        let (mut g, [_, b, _], [e1, e2, _]) = triangle();
        g.remove_edge(e1);
        g.remove_edge(e2);
        // b now has no incident edges.
        let n = g.remove_orphans();
        assert_eq!(n, 1);
        assert!(!g.contains_vertex(b));
        assert_eq!(g.vertex_count(), 2);
    }

    #[test]
    fn compact_renumbers() {
        let (mut g, [a, b, _], _) = triangle();
        g.remove_vertex(a);
        let vmap = g.compact();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(vmap.contains_key(&b));
        // New ids are dense.
        let ids: Vec<u32> = g.vertices().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn edge_subgraph_preserves_labels() {
        let (g, _, [e1, e2, _]) = triangle();
        let (sub, vmap) = g.edge_subgraph(&[e1, e2]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(vmap.len(), 3);
        let labels: Vec<u32> = sub.vertices().map(|v| sub.vertex_label(v).0).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn induced_subgraph() {
        let (g, [a, b, _], _) = triangle();
        let (sub, _) = g.induced_subgraph(&[a, b]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1); // only a->b is internal
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let (g, [a, b, _], _) = triangle();
        let (sub, _) = g.induced_subgraph(&[a, b, a, b]);
        assert_eq!(sub.vertex_count(), 2);
    }

    #[test]
    fn uniform_labels_and_histograms() {
        let (mut g, _, _) = triangle();
        assert_eq!(g.vertex_label_histogram().len(), 3);
        g.uniform_vertex_labels(VLabel(0));
        let h = g.vertex_label_histogram();
        assert_eq!(h.len(), 1);
        assert_eq!(h[&VLabel(0)], 3);
        let eh = g.edge_label_histogram();
        assert_eq!(eh.len(), 3);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        g.add_edge(a, a, ELabel(0));
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.incident_edges(a).count(), 2);
    }

    #[test]
    #[should_panic(expected = "dead src")]
    fn add_edge_to_removed_vertex_panics() {
        let (mut g, [a, b, _], _) = triangle();
        g.remove_vertex(a);
        g.add_edge(a, b, ELabel(0));
    }
}

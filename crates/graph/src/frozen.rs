//! Immutable frozen-CSR snapshots of builder graphs.
//!
//! The arena [`Graph`] is the *mutation* representation: ingest, OD-graph
//! construction, and the Algorithm-2 partitioners all need cheap edge
//! removal, which tombstones buy. Everything downstream of partitioning
//! only reads — and pays the arena's costs (alive-filtering on every
//! adjacency probe, unsorted neighbor lists) millions of times per mining
//! run. [`TxnSet`] is the *read* representation: builder graphs compacted
//! into CSR arrays packed into shared arenas (vertex labels, edge
//! triples, offsets) with per-graph base offsets, each graph read through
//! a `Copy` [`TxnRef`] view with local dense ids. A frozen single graph
//! ([`Graph::freeze`]) is a [`FrozenGraph`]: a set holding exactly one
//! transaction, read through [`FrozenGraph::view`] — the same arrays and
//! the same [`GraphView`] code as every packed transaction.
//!
//! Layout per direction (out shown; in is symmetric):
//!
//! * `off[v]..off[v+1]` index two parallel adjacency arrays;
//! * `adj` holds edge ids in **ascending id order** — the exact order a
//!   dense arena yields, so plain iteration is representation-invariant
//!   (this is what keeps miner output byte-identical after freezing);
//! * `lab` holds the same edge ids sorted by `(ELabel, dst-VLabel,
//!   EdgeId)` — embedding extension binary-searches its `(edge label,
//!   endpoint label)` candidate slice here instead of scanning, and the
//!   trailing edge-id key keeps matches in ascending id order so the
//!   fast path emits candidates in the same sequence the scan would.
//!
//! Freezing compacts ids in live-id order (the same numbering
//! [`Graph::compact`] produces): dense vertex `i` is the `i`-th item of
//! the builder's `vertices()`, dense edge `i` the `i`-th of its
//! `edges()`. That is how SUBDUE reports instances in the caller's id
//! space without a stored reverse map.

use crate::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use crate::view::{GraphView, TxnSource};
use std::sync::atomic::{AtomicU64, Ordering};

static FREEZE_COUNT: AtomicU64 = AtomicU64::new(0);
static CSR_BYTES: AtomicU64 = AtomicU64::new(0);
static ADJ_BINARY_SEARCHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide frozen-graph counters, snapshotted by the CLI/bench
/// layers into the `tnet-obs` registry as `graph.freeze_count`,
/// `graph.csr_bytes` and `graph.adj_binary_searches`.
///
/// All three are cumulative and deterministic for a fixed workload at any
/// thread count: the set of freezes and candidate queries a mining run
/// performs does not depend on scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrozenStats {
    /// Number of graphs frozen (each packed transaction counts one).
    pub freeze_count: u64,
    /// Total bytes of CSR arrays built by those freezes.
    pub csr_bytes: u64,
    /// Label-directed candidate lookups answered by binary search.
    pub adj_binary_searches: u64,
}

impl FrozenStats {
    /// Current process-wide totals.
    pub fn snapshot() -> FrozenStats {
        FrozenStats {
            freeze_count: FREEZE_COUNT.load(Ordering::Relaxed),
            csr_bytes: CSR_BYTES.load(Ordering::Relaxed),
            adj_binary_searches: ADJ_BINARY_SEARCHES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &FrozenStats) -> FrozenStats {
        FrozenStats {
            freeze_count: self.freeze_count - earlier.freeze_count,
            csr_bytes: self.csr_bytes - earlier.csr_bytes,
            adj_binary_searches: self.adj_binary_searches - earlier.adj_binary_searches,
        }
    }

    /// Hands each counter to `f` under its registry name
    /// (`graph.freeze_count`, …). The callback shape avoids a dependency
    /// on `tnet-obs`: callers pass `|name, v| registry.add(name, v)`.
    pub fn publish(&self, f: &mut dyn FnMut(&str, u64)) {
        f("graph.freeze_count", self.freeze_count);
        f("graph.csr_bytes", self.csr_bytes);
        f("graph.adj_binary_searches", self.adj_binary_searches);
    }
}

/// Binary-searches a label-sorted adjacency row for the contiguous run
/// with key exactly `want`. `key` must be monotone over `row`.
#[inline]
fn matching_run(row: &[EdgeId], key: impl Fn(EdgeId) -> (u32, u32), want: (u32, u32)) -> &[EdgeId] {
    ADJ_BINARY_SEARCHES.fetch_add(1, Ordering::Relaxed);
    let lo = row.partition_point(|&e| key(e) < want);
    let hi = lo + row[lo..].partition_point(|&e| key(e) == want);
    &row[lo..hi]
}

/// Appends one graph's CSR for one direction to the packed arrays.
/// `endpoint[e]` is the local vertex owning local edge `e` in this
/// direction; `other[e]` is the far endpoint whose label sorts `lab`.
/// `off` is empty or ends with the graph's first row start, and gains
/// one entry per vertex, so rows stay indexed by global vertex position.
fn build_csr(
    endpoint: &[VertexId],
    other: &[VertexId],
    elabels: &[ELabel],
    vlabels: &[VLabel],
    off: &mut Vec<u32>,
    adj: &mut Vec<EdgeId>,
    lab: &mut Vec<EdgeId>,
) {
    let n = vlabels.len();
    off.reserve(n + 1);
    if off.is_empty() {
        off.push(0);
    }
    let first = off.len() - 1;
    let base = off[first] as usize;
    debug_assert_eq!(adj.len(), base);
    off.resize(first + n + 1, 0);
    let row = &mut off[first..];
    for v in endpoint {
        row[v.index() + 1] += 1;
    }
    for i in 0..n {
        row[i + 1] += row[i];
    }
    adj.resize(base + endpoint.len(), EdgeId(0));
    let mut cursor = row[..n].to_vec();
    // Ascending edge-id fill keeps each row in ascending id order.
    for (e, v) in endpoint.iter().enumerate() {
        let c = &mut cursor[v.index()];
        adj[*c as usize] = EdgeId(e as u32);
        *c += 1;
    }
    lab.extend_from_slice(&adj[base..]);
    for v in 0..n {
        lab[row[v] as usize..row[v + 1] as usize].sort_unstable_by_key(|&e| {
            (
                elabels[e.index()].0,
                vlabels[other[e.index()].index()].0,
                e.0,
            )
        });
    }
}

/// True if no `(src, dst, label)` triple repeats. Each out row of `lab`
/// is sorted by edge label first, so one (src, label) pair is one
/// contiguous run; stamping each destination with the current run's
/// number finds a repeat in one pass over the edges.
fn no_repeated_triples(off: &[u32], lab: &[EdgeId], elabels: &[ELabel], edst: &[VertexId]) -> bool {
    let mut stamp = vec![0u32; off.len().saturating_sub(1)];
    let mut run = 0u32;
    for row in off.windows(2) {
        let mut label = None;
        for &e in &lab[row[0] as usize..row[1] as usize] {
            let l = elabels[e.index()];
            if label != Some(l) {
                label = Some(l);
                run += 1;
            }
            let d = edst[e.index()].index();
            if stamp[d] == run {
                return false;
            }
            stamp[d] = run;
        }
    }
    true
}

/// Graphs frozen into CSR arrays packed into shared arenas.
///
/// Per-transaction vertex/edge ids are **local** (dense from 0, in the
/// builder's live-id order), so a [`TxnRef`] reads like a standalone
/// graph; the backing storage is contiguous across all transactions.
pub struct TxnSet {
    vlabels: Vec<VLabel>,
    esrc: Vec<VertexId>,
    edst: Vec<VertexId>,
    elabels: Vec<ELabel>,
    out_off: Vec<u32>,
    /// Out adjacency in ascending edge-id order.
    out_adj: Vec<EdgeId>,
    /// Out adjacency sorted by `(ELabel, dst VLabel, EdgeId)`.
    out_lab: Vec<EdgeId>,
    in_off: Vec<u32>,
    in_adj: Vec<EdgeId>,
    /// In adjacency sorted by `(ELabel, src VLabel, EdgeId)`.
    in_lab: Vec<EdgeId>,
    /// Where each transaction sits in the arrays above.
    txns: Vec<Span>,
}

/// One transaction's place in a [`TxnSet`].
#[derive(Clone, Copy)]
struct Span {
    v_base: u32,
    e_base: u32,
    v_count: u32,
    e_count: u32,
    /// No `(src, dst, label)` triple repeats (see
    /// [`GraphView::is_simple`]).
    simple: bool,
}

/// A frozen single graph: a [`TxnSet`] holding exactly one transaction.
/// Construct with [`Graph::freeze`]; read through [`FrozenGraph::view`].
pub struct FrozenGraph(TxnSet);

impl FrozenGraph {
    pub(crate) fn freeze(g: &Graph) -> FrozenGraph {
        FrozenGraph(TxnSet::freeze(std::slice::from_ref(g)))
    }

    /// The graph's read view (dense ids in the builder's live-id order).
    pub fn view(&self) -> TxnRef<'_> {
        self.0.get(0)
    }
}

impl TxnSet {
    /// Freezes every transaction straight into the packed arrays.
    /// Transaction order is preserved; live vertices and edges of
    /// transaction `i` are renumbered densely in ascending builder-id
    /// order (the numbering [`Graph::compact`] uses).
    pub fn freeze(transactions: &[Graph]) -> TxnSet {
        let mut set = TxnSet {
            vlabels: Vec::new(),
            esrc: Vec::new(),
            edst: Vec::new(),
            elabels: Vec::new(),
            out_off: Vec::new(),
            out_adj: Vec::new(),
            out_lab: Vec::new(),
            in_off: Vec::new(),
            in_adj: Vec::new(),
            in_lab: Vec::new(),
            txns: Vec::new(),
        };
        let mut dense: Vec<u32> = Vec::new();
        for g in transactions {
            let (v0, n, m) = (set.vlabels.len(), g.vertex_count(), g.edge_count());
            dense.clear();
            dense.resize(g.vertices().last().map_or(0, |v| v.index() + 1), u32::MAX);
            set.vlabels.reserve(n);
            for v in g.vertices() {
                dense[v.index()] = (set.vlabels.len() - v0) as u32;
                set.vlabels.push(g.vertex_label(v));
            }
            set.esrc.reserve(m);
            set.edst.reserve(m);
            set.elabels.reserve(m);
            for e in g.edges() {
                let (s, d, l) = g.edge(e);
                set.esrc.push(VertexId(dense[s.index()]));
                set.edst.push(VertexId(dense[d.index()]));
                set.elabels.push(l);
            }
            let e0 = set.elabels.len() - m;
            let vlabels = &set.vlabels[v0..];
            let (esrc, edst, elabels) = (&set.esrc[e0..], &set.edst[e0..], &set.elabels[e0..]);
            build_csr(
                esrc,
                edst,
                elabels,
                vlabels,
                &mut set.out_off,
                &mut set.out_adj,
                &mut set.out_lab,
            );
            build_csr(
                edst,
                esrc,
                elabels,
                vlabels,
                &mut set.in_off,
                &mut set.in_adj,
                &mut set.in_lab,
            );
            FREEZE_COUNT.fetch_add(1, Ordering::Relaxed);
            // Three vertex arrays (labels, two offsets), seven edge
            // arrays (triple, two adjacency orders per direction).
            CSR_BYTES.fetch_add(4 * (3 * n + 7 * m) as u64, Ordering::Relaxed);
        }
        // Spans go last, in one exact allocation. A small block that
        // outlives the freeze but is allocated before its arrays lands
        // in a recycled chunk high in the heap and can keep glibc from
        // trimming it: with the span list allocated first, e2ebench's
        // `serve_mixed` (which freezes one-graph sets on every daemon
        // start and publish) read a peak RSS of 73 MB instead of 58.
        let (mut v0, mut e0) = (0, 0);
        let txns = transactions
            .iter()
            .map(|g| {
                let (n, m) = (g.vertex_count(), g.edge_count());
                let (edst, elabels) = (&set.edst[e0..e0 + m], &set.elabels[e0..e0 + m]);
                let span = Span {
                    v_base: v0 as u32,
                    e_base: e0 as u32,
                    v_count: n as u32,
                    e_count: m as u32,
                    simple: no_repeated_triples(
                        &set.out_off[v0..=v0 + n],
                        &set.out_lab,
                        elabels,
                        edst,
                    ),
                };
                (v0, e0) = (v0 + n, e0 + m);
                span
            })
            .collect();
        set.txns = txns;
        set
    }

    /// Number of packed transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if the set holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of transaction `i` (local dense ids).
    pub fn get(&self, i: usize) -> TxnRef<'_> {
        TxnRef {
            set: self,
            span: self.txns[i],
        }
    }

    /// Iterator over all transaction views in order.
    pub fn iter(&self) -> impl Iterator<Item = TxnRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// A [`TxnSource`] view of the contiguous transaction range
    /// `lo..hi`, re-numbered from 0. Windows over a shared frozen set
    /// mine through this without re-freezing.
    pub fn slice(&self, lo: usize, hi: usize) -> TxnSlice<'_> {
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        TxnSlice { set: self, lo, hi }
    }
}

/// A contiguous window `lo..hi` of a [`TxnSet`], itself a [`TxnSource`]
/// with transactions re-numbered from 0. Copy-cheap: borrows the set's
/// arenas.
#[derive(Clone, Copy)]
pub struct TxnSlice<'a> {
    set: &'a TxnSet,
    lo: usize,
    hi: usize,
}

impl TxnSource for TxnSlice<'_> {
    type View<'a>
        = TxnRef<'a>
    where
        Self: 'a;

    fn txn_count(&self) -> usize {
        self.hi - self.lo
    }

    fn txn(&self, i: usize) -> Self::View<'_> {
        debug_assert!(i < self.hi - self.lo);
        self.set.get(self.lo + i)
    }
}

impl TxnSource for TxnSet {
    type View<'a> = TxnRef<'a>;

    fn txn_count(&self) -> usize {
        self.len()
    }

    fn txn(&self, i: usize) -> Self::View<'_> {
        self.get(i)
    }
}

/// `Copy` read view of one transaction inside a [`TxnSet`]. All ids are
/// local to the transaction.
#[derive(Clone, Copy)]
pub struct TxnRef<'a> {
    set: &'a TxnSet,
    span: Span,
}

impl TxnRef<'_> {
    #[inline]
    fn gv(&self, v: VertexId) -> usize {
        (self.span.v_base + v.0) as usize
    }

    #[inline]
    fn ge(&self, e: EdgeId) -> usize {
        (self.span.e_base + e.0) as usize
    }

    fn out_row(&self, v: VertexId) -> &[EdgeId] {
        let gv = self.gv(v);
        &self.set.out_adj[self.set.out_off[gv] as usize..self.set.out_off[gv + 1] as usize]
    }

    fn in_row(&self, v: VertexId) -> &[EdgeId] {
        let gv = self.gv(v);
        &self.set.in_adj[self.set.in_off[gv] as usize..self.set.in_off[gv + 1] as usize]
    }

    /// Out-edges of `v` labeled `el` whose destination has label `vl`, in
    /// ascending edge-id order.
    fn out_run(&self, v: VertexId, el: ELabel, vl: VLabel) -> &[EdgeId] {
        let gv = self.gv(v);
        let row =
            &self.set.out_lab[self.set.out_off[gv] as usize..self.set.out_off[gv + 1] as usize];
        matching_run(
            row,
            |e| {
                let ge = self.ge(e);
                (
                    self.set.elabels[ge].0,
                    self.set.vlabels[(self.span.v_base + self.set.edst[ge].0) as usize].0,
                )
            },
            (el.0, vl.0),
        )
    }

    /// In-edges of `v` labeled `el` whose source has label `vl`.
    fn in_run(&self, v: VertexId, el: ELabel, vl: VLabel) -> &[EdgeId] {
        let gv = self.gv(v);
        let row = &self.set.in_lab[self.set.in_off[gv] as usize..self.set.in_off[gv + 1] as usize];
        matching_run(
            row,
            |e| {
                let ge = self.ge(e);
                (
                    self.set.elabels[ge].0,
                    self.set.vlabels[(self.span.v_base + self.set.esrc[ge].0) as usize].0,
                )
            },
            (el.0, vl.0),
        )
    }
}

impl GraphView for TxnRef<'_> {
    fn vertex_count(&self) -> usize {
        self.span.v_count as usize
    }

    fn edge_count(&self) -> usize {
        self.span.e_count as usize
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.span.v_count).map(VertexId)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.span.e_count).map(EdgeId)
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        self.set.vlabels[self.gv(v)]
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        let ge = self.ge(e);
        (self.set.esrc[ge], self.set.edst[ge], self.set.elabels[ge])
    }

    fn edge_src(&self, e: EdgeId) -> VertexId {
        self.set.esrc[self.ge(e)]
    }

    fn edge_dst(&self, e: EdgeId) -> VertexId {
        self.set.edst[self.ge(e)]
    }

    fn edge_label(&self, e: EdgeId) -> ELabel {
        self.set.elabels[self.ge(e)]
    }

    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_row(v).iter().copied()
    }

    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_row(v).iter().copied()
    }

    fn out_degree(&self, v: VertexId) -> usize {
        self.out_row(v).len()
    }

    fn in_degree(&self, v: VertexId) -> usize {
        self.in_row(v).len()
    }

    fn visit_out_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        for &e in self.out_run(v, el, vl) {
            f(e, self.set.edst[self.ge(e)]);
        }
    }

    fn visit_in_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        for &e in self.in_run(v, el, vl) {
            f(e, self.set.esrc[self.ge(e)]);
        }
    }

    fn count_out_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        self.out_run(v, el, vl).len()
    }

    fn count_in_matching(&self, v: VertexId, el: ELabel, vl: VLabel) -> usize {
        self.in_run(v, el, vl).len()
    }

    fn has_edge_labeled(&self, s: VertexId, d: VertexId, el: ELabel) -> bool {
        // Narrow the shorter of the two adjacency rows (`s`'s out-row or
        // `d`'s in-row) to its (label, far-label) run by binary search,
        // then scan the run for the exact far endpoint: a hub's row can
        // hold thousands of edges, its spoke's a handful.
        if self.out_degree(s) <= self.in_degree(d) {
            let run = self.out_run(s, el, self.vertex_label(d));
            run.iter().any(|&e| self.set.edst[self.ge(e)] == d)
        } else {
            let run = self.in_run(d, el, self.vertex_label(s));
            run.iter().any(|&e| self.set.esrc[self.ge(e)] == s)
        }
    }

    fn is_simple(&self) -> bool {
        self.span.simple
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::shapes;

    fn messy_graph() -> Graph {
        // Build with tombstones so freezing actually compacts.
        let mut g = Graph::new();
        let vs: Vec<_> = (0..6).map(|i| g.add_vertex(VLabel(i % 3))).collect();
        let mut es = Vec::new();
        for i in 0..6 {
            es.push(g.add_edge(vs[i], vs[(i + 1) % 6], ELabel(i as u32 % 2)));
        }
        g.add_edge(vs[0], vs[3], ELabel(7));
        g.add_edge(vs[0], vs[4], ELabel(7));
        g.remove_edge(es[2]);
        g.remove_vertex(vs[5]);
        g
    }

    #[test]
    fn slice_views_match_direct_views() {
        use crate::view::TxnSource;
        let txns: Vec<Graph> = (1..=5).map(|n| shapes::chain(n, 0, 1)).collect();
        let set = TxnSet::freeze(&txns);
        let slice = set.slice(1, 4);
        assert_eq!(slice.txn_count(), 3);
        for i in 0..3 {
            let a = slice.txn(i);
            let b = set.get(i + 1);
            assert_eq!(a.edge_count(), b.edge_count());
            assert_eq!(a.vertex_count(), b.vertex_count());
            assert_eq!(a.edge_count(), i + 2);
        }
    }

    /// A compacted clone of `g`: the builder numbering freezing uses.
    fn compacted(g: &Graph) -> Graph {
        let mut c = g.clone();
        c.compact();
        c
    }

    #[test]
    fn freeze_numbers_in_live_order() {
        let g = messy_graph();
        let fg = g.freeze();
        let t = fg.view();
        let c = compacted(&g);
        assert_eq!(t.vertex_count(), g.vertex_count());
        assert_eq!(t.edge_count(), g.edge_count());
        for (i, v) in g.vertices().enumerate() {
            assert_eq!(t.vertex_label(VertexId(i as u32)), g.vertex_label(v));
        }
        for (i, e) in g.edges().enumerate() {
            assert_eq!(t.edge_label(EdgeId(i as u32)), g.edge_label(e));
            assert_eq!(t.edge(EdgeId(i as u32)), c.edge(EdgeId(i as u32)));
        }
    }

    #[test]
    fn adjacency_iteration_matches_dense_arena() {
        // On a dense graph, frozen ids equal arena ids and every iterator
        // must yield the identical sequence — the byte-identity contract.
        let g = shapes::hub_and_spoke(5, 0, 1);
        let fg = g.freeze();
        let t = fg.view();
        for v in g.vertices() {
            let a: Vec<EdgeId> = g.out_edges(v).collect();
            let b: Vec<EdgeId> = t.out_edges(v).collect();
            assert_eq!(a, b);
            let a: Vec<EdgeId> = g.in_edges(v).collect();
            let b: Vec<EdgeId> = t.in_edges(v).collect();
            assert_eq!(a, b);
            assert_eq!(g.out_degree(v), t.out_degree(v));
            assert_eq!(g.in_degree(v), t.in_degree(v));
        }
    }

    #[test]
    fn visit_matching_agrees_with_linear_scan() {
        let g = messy_graph();
        let fg = g.freeze();
        let t = fg.view();
        // The default (linear) implementation on the compacted builder
        // is the reference.
        let back = compacted(&g);
        let labels: Vec<VLabel> = (0..3).map(VLabel).collect();
        let elabels: Vec<ELabel> = vec![ELabel(0), ELabel(1), ELabel(7)];
        for v in t.vertices() {
            for &el in &elabels {
                for &vl in &labels {
                    let mut fast: Vec<(EdgeId, VertexId)> = Vec::new();
                    t.visit_out_matching(v, el, vl, &mut |e, d| fast.push((e, d)));
                    let mut slow: Vec<(EdgeId, VertexId)> = Vec::new();
                    back.visit_out_matching(v, el, vl, &mut |e, d| slow.push((e, d)));
                    assert_eq!(fast, slow, "out v={v:?} el={el:?} vl={vl:?}");
                    let mut fast_in: Vec<(EdgeId, VertexId)> = Vec::new();
                    t.visit_in_matching(v, el, vl, &mut |e, s| fast_in.push((e, s)));
                    let mut slow_in: Vec<(EdgeId, VertexId)> = Vec::new();
                    back.visit_in_matching(v, el, vl, &mut |e, s| slow_in.push((e, s)));
                    assert_eq!(fast_in, slow_in, "in v={v:?} el={el:?} vl={vl:?}");
                }
            }
        }
    }

    #[test]
    fn txnset_views_match_individual_freezes() {
        let txns = vec![
            messy_graph(),
            shapes::cycle(4, 1, 2),
            shapes::hub_and_spoke(3, 0, 9),
        ];
        let set = TxnSet::freeze(&txns);
        assert_eq!(set.len(), 3);
        for (i, g) in txns.iter().enumerate() {
            let t = set.get(i);
            let fg = g.freeze();
            let one = fg.view();
            assert_eq!(t.vertex_count(), one.vertex_count());
            assert_eq!(t.edge_count(), one.edge_count());
            for v in one.vertices() {
                assert_eq!(t.vertex_label(v), one.vertex_label(v));
                let a: Vec<EdgeId> = t.out_edges(v).collect();
                let b: Vec<EdgeId> = one.out_edges(v).collect();
                assert_eq!(a, b, "txn {i} out row of {v:?}");
                let a: Vec<EdgeId> = t.in_edges(v).collect();
                let b: Vec<EdgeId> = one.in_edges(v).collect();
                assert_eq!(a, b, "txn {i} in row of {v:?}");
            }
            let c = compacted(g);
            for e in one.edges() {
                assert_eq!(t.edge(e), one.edge(e));
                assert_eq!(t.edge(e), c.edge(e));
            }
        }
    }

    #[test]
    fn simple_bit_tracks_repeated_triples() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(0));
        let b = g.add_vertex(VLabel(0));
        g.add_edge(a, b, ELabel(1));
        g.add_edge(a, b, ELabel(2));
        g.add_edge(b, a, ELabel(1));
        g.add_edge(a, a, ELabel(1));
        assert!(
            g.freeze().view().is_simple(),
            "different labels or directions"
        );
        let mut multi = g.clone();
        multi.add_edge(a, b, ELabel(2));
        assert!(!multi.freeze().view().is_simple());
        let set = TxnSet::freeze(&[g.clone(), multi, g]);
        let bits: Vec<bool> = set.iter().map(|t| t.is_simple()).collect();
        assert_eq!(bits, [true, false, true]);
        assert!(!Graph::new().is_simple(), "the arena never claims it");
    }

    #[test]
    fn stats_accumulate() {
        let before = FrozenStats::snapshot();
        let g = shapes::cycle(5, 0, 1);
        let fg = g.freeze();
        fg.view()
            .visit_out_matching(VertexId(0), ELabel(1), VLabel(0), &mut |_, _| {});
        let after = FrozenStats::snapshot().since(&before);
        assert!(after.freeze_count >= 1);
        // Five vertices, five edges: 3 vertex arrays and 7 edge arrays.
        assert!(after.csr_bytes >= 4 * (3 * 5 + 7 * 5));
        assert!(after.adj_binary_searches >= 1);
        let mut names = Vec::new();
        after.publish(&mut |name, _| names.push(name.to_string()));
        assert_eq!(
            names,
            [
                "graph.freeze_count",
                "graph.csr_bytes",
                "graph.adj_binary_searches"
            ]
        );
    }
}

//! Immutable frozen-CSR snapshots of builder graphs.
//!
//! The arena [`Graph`] is the *mutation* representation: ingest, OD-graph
//! construction, and the Algorithm-2 partitioners all need cheap edge
//! removal, which tombstones buy. Everything downstream of partitioning
//! only reads — and pays the arena's costs (alive-filtering on every
//! adjacency probe, unsorted neighbor lists) millions of times per mining
//! run. [`FrozenGraph`] is the *read* representation: a compacted CSR
//! snapshot produced by [`Graph::freeze`], traversed through
//! [`GraphView`], and turned back into a builder with
//! [`FrozenGraph::thaw`].
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
//! [`TxnSet`] packs a whole partition's transactions into one shared set
//! of arenas (vertex labels, edge triples, offsets) with per-transaction
//! base offsets; [`TxnRef`] is a `Copy` per-transaction view with local
//! ids. Besides cache locality, the packed form is the intended sharding
//! boundary: a `TxnSet` is a self-contained, immutable unit of mining
//! work.
//!
//! Freezing compacts ids in live-id order (the same numbering
//! [`Graph::compact`] produces); [`FrozenGraph::orig_vertex`] /
//! [`FrozenGraph::orig_edge`] recover the builder ids, which is how
//! SUBDUE reports instances in the caller's id space.

use crate::canon::wl_hash_view;
use crate::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use crate::view::{GraphView, TxnSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static FREEZE_COUNT: AtomicU64 = AtomicU64::new(0);
static CSR_BYTES: AtomicU64 = AtomicU64::new(0);
static ADJ_BINARY_SEARCHES: AtomicU64 = AtomicU64::new(0);
static FINGERPRINT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide frozen-graph counters, snapshotted by the CLI/bench
/// layers into the `tnet-obs` registry as `graph.freeze_count`,
/// `graph.csr_bytes`, `graph.adj_binary_searches`, and
/// `graph.fingerprint_bytes`.
///
/// All four are cumulative and deterministic for a fixed workload at any
/// thread count: the set of freezes and candidate queries a mining run
/// performs does not depend on scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrozenStats {
    /// Number of `freeze()` calls (each packed transaction counts one).
    pub freeze_count: u64,
    /// Total bytes of CSR arrays built by those freezes.
    pub csr_bytes: u64,
    /// Label-directed candidate lookups answered by binary search.
    pub adj_binary_searches: u64,
    /// Bytes of per-vertex fingerprint arrays precomputed by freezes
    /// (see [`crate::fingerprint`]): 8 bytes per frozen vertex.
    pub fingerprint_bytes: u64,
}

impl FrozenStats {
    /// Current process-wide totals.
    pub fn snapshot() -> FrozenStats {
        FrozenStats {
            freeze_count: FREEZE_COUNT.load(Ordering::Relaxed),
            csr_bytes: CSR_BYTES.load(Ordering::Relaxed),
            adj_binary_searches: ADJ_BINARY_SEARCHES.load(Ordering::Relaxed),
            fingerprint_bytes: FINGERPRINT_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &FrozenStats) -> FrozenStats {
        FrozenStats {
            freeze_count: self.freeze_count - earlier.freeze_count,
            csr_bytes: self.csr_bytes - earlier.csr_bytes,
            adj_binary_searches: self.adj_binary_searches - earlier.adj_binary_searches,
            fingerprint_bytes: self.fingerprint_bytes - earlier.fingerprint_bytes,
        }
    }

    /// Hands each counter to `f` under its registry name
    /// (`graph.freeze_count`, …). The callback shape avoids a dependency
    /// on `tnet-obs`: callers pass `|name, v| registry.add(name, v)`.
    pub fn publish(&self, f: &mut dyn FnMut(&str, u64)) {
        f("graph.freeze_count", self.freeze_count);
        f("graph.csr_bytes", self.csr_bytes);
        f("graph.adj_binary_searches", self.adj_binary_searches);
        f("graph.fingerprint_bytes", self.fingerprint_bytes);
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

/// An immutable compacted CSR snapshot of a [`Graph`].
///
/// Ids are dense (`0..vertex_count`, `0..edge_count`), numbered in the
/// builder's live-id order. Construct with [`Graph::freeze`]; all reads
/// go through [`GraphView`].
pub struct FrozenGraph {
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
    /// Dense id -> builder arena id.
    orig_v: Vec<VertexId>,
    orig_e: Vec<EdgeId>,
    /// Per-vertex structural fingerprints (see [`crate::fingerprint`]),
    /// precomputed so the pre-VF2 filter is an array load.
    fps: Vec<u64>,
    /// No `(src, dst, label)` triple repeats (see
    /// [`GraphView::is_simple`]).
    simple: bool,
    hash_cache: OnceLock<u64>,
}

/// Builds `(off, adj, lab)` for one direction from dense endpoint lists.
/// `endpoint[e]` is the vertex owning edge `e` in this direction;
/// `other[e]` is the far endpoint whose label sorts the `lab` array.
fn build_csr(
    n: usize,
    endpoint: &[VertexId],
    other: &[VertexId],
    elabels: &[ELabel],
    vlabels: &[VLabel],
) -> (Vec<u32>, Vec<EdgeId>, Vec<EdgeId>) {
    let mut off = vec![0u32; n + 1];
    for v in endpoint {
        off[v.index() + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut adj = vec![EdgeId(0); endpoint.len()];
    let mut cursor = off.clone();
    // Ascending edge-id fill keeps each row in ascending id order.
    for (e, v) in endpoint.iter().enumerate() {
        let c = &mut cursor[v.index()];
        adj[*c as usize] = EdgeId(e as u32);
        *c += 1;
    }
    let mut lab = adj.clone();
    for v in 0..n {
        let row = &mut lab[off[v] as usize..off[v + 1] as usize];
        row.sort_unstable_by_key(|&e| {
            (
                elabels[e.index()].0,
                vlabels[other[e.index()].index()].0,
                e.0,
            )
        });
    }
    (off, adj, lab)
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

impl FrozenGraph {
    /// Freezes `g` into a CSR snapshot. Live vertices and edges are
    /// renumbered densely in ascending builder-id order (the numbering
    /// [`Graph::compact`] uses).
    pub fn freeze(g: &Graph) -> FrozenGraph {
        let slots = g.vertices().last().map_or(0, |v| v.index() + 1);
        let mut dense = vec![u32::MAX; slots];
        let mut vlabels = Vec::with_capacity(g.vertex_count());
        let mut orig_v = Vec::with_capacity(g.vertex_count());
        for v in g.vertices() {
            dense[v.index()] = vlabels.len() as u32;
            vlabels.push(g.vertex_label(v));
            orig_v.push(v);
        }
        let m = g.edge_count();
        let mut esrc = Vec::with_capacity(m);
        let mut edst = Vec::with_capacity(m);
        let mut elabels = Vec::with_capacity(m);
        let mut orig_e = Vec::with_capacity(m);
        for e in g.edges() {
            let (s, d, l) = g.edge(e);
            esrc.push(VertexId(dense[s.index()]));
            edst.push(VertexId(dense[d.index()]));
            elabels.push(l);
            orig_e.push(e);
        }
        let n = vlabels.len();
        let (out_off, out_adj, out_lab) = build_csr(n, &esrc, &edst, &elabels, &vlabels);
        let (in_off, in_adj, in_lab) = build_csr(n, &edst, &esrc, &elabels, &vlabels);
        let simple = no_repeated_triples(&out_off, &out_lab, &elabels, &edst);
        let mut fg = FrozenGraph {
            vlabels,
            esrc,
            edst,
            elabels,
            out_off,
            out_adj,
            out_lab,
            in_off,
            in_adj,
            in_lab,
            orig_v,
            orig_e,
            fps: Vec::new(),
            simple,
            hash_cache: OnceLock::new(),
        };
        // Computed through the free function (not the trait method, whose
        // override would read the still-empty array), over the snapshot's
        // own view — the same label/degree surface the arena exposes, so
        // filter decisions are representation-invariant.
        fg.fps = crate::fingerprint::graph_fingerprints(&fg);
        // Freezing is structure-preserving, so a hash the builder already
        // paid for carries over (the WL hash is id-invariant).
        if let Some(&h) = g.hash_cache.get() {
            let _ = fg.hash_cache.set(h);
        }
        FREEZE_COUNT.fetch_add(1, Ordering::Relaxed);
        CSR_BYTES.fetch_add(fg.csr_bytes() as u64, Ordering::Relaxed);
        FINGERPRINT_BYTES.fetch_add(8 * fg.fps.len() as u64, Ordering::Relaxed);
        fg
    }

    /// Bytes held by the snapshot's arrays.
    pub fn csr_bytes(&self) -> usize {
        4 * (self.vlabels.len()
            + self.esrc.len()
            + self.edst.len()
            + self.elabels.len()
            + self.out_off.len()
            + self.out_adj.len()
            + self.out_lab.len()
            + self.in_off.len()
            + self.in_adj.len()
            + self.in_lab.len()
            + self.orig_v.len()
            + self.orig_e.len())
    }

    /// Rebuilds a mutable [`Graph`] with the snapshot's dense ids.
    pub fn thaw(&self) -> Graph {
        let mut g = Graph::with_capacity(self.vlabels.len(), self.elabels.len());
        for &l in &self.vlabels {
            g.add_vertex(l);
        }
        for i in 0..self.elabels.len() {
            g.add_edge(self.esrc[i], self.edst[i], self.elabels[i]);
        }
        if let Some(&h) = self.hash_cache.get() {
            let _ = g.hash_cache.set(h);
        }
        g
    }

    /// Builder arena id of dense vertex `v`.
    pub fn orig_vertex(&self, v: VertexId) -> VertexId {
        self.orig_v[v.index()]
    }

    /// Builder arena id of dense edge `e`.
    pub fn orig_edge(&self, e: EdgeId) -> EdgeId {
        self.orig_e[e.index()]
    }

    /// Isomorphism-invariant WL hash, memoized. Equal to
    /// [`crate::canon::invariant_hash`] of any isomorphic builder graph.
    pub fn invariant_hash(&self) -> u64 {
        *self.hash_cache.get_or_init(|| wl_hash_view(self))
    }

    fn out_row(&self, v: VertexId) -> &[EdgeId] {
        &self.out_adj[self.out_off[v.index()] as usize..self.out_off[v.index() + 1] as usize]
    }

    fn in_row(&self, v: VertexId) -> &[EdgeId] {
        &self.in_adj[self.in_off[v.index()] as usize..self.in_off[v.index() + 1] as usize]
    }

    /// Out-edges of `v` labeled `el` whose destination has label `vl`, in
    /// ascending edge-id order.
    fn out_run(&self, v: VertexId, el: ELabel, vl: VLabel) -> &[EdgeId] {
        let row =
            &self.out_lab[self.out_off[v.index()] as usize..self.out_off[v.index() + 1] as usize];
        matching_run(
            row,
            |e| {
                (
                    self.elabels[e.index()].0,
                    self.vlabels[self.edst[e.index()].index()].0,
                )
            },
            (el.0, vl.0),
        )
    }

    /// In-edges of `v` labeled `el` whose source has label `vl`.
    fn in_run(&self, v: VertexId, el: ELabel, vl: VLabel) -> &[EdgeId] {
        let row =
            &self.in_lab[self.in_off[v.index()] as usize..self.in_off[v.index() + 1] as usize];
        matching_run(
            row,
            |e| {
                (
                    self.elabels[e.index()].0,
                    self.vlabels[self.esrc[e.index()].index()].0,
                )
            },
            (el.0, vl.0),
        )
    }
}

impl std::fmt::Debug for FrozenGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FrozenGraph {{ |V|={}, |E|={} }}",
            self.vlabels.len(),
            self.elabels.len()
        )
    }
}

impl GraphView for FrozenGraph {
    fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    fn edge_count(&self) -> usize {
        self.elabels.len()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vlabels.len() as u32).map(VertexId)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.elabels.len() as u32).map(EdgeId)
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        self.vlabels[v.index()]
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        (
            self.esrc[e.index()],
            self.edst[e.index()],
            self.elabels[e.index()],
        )
    }

    fn edge_src(&self, e: EdgeId) -> VertexId {
        self.esrc[e.index()]
    }

    fn edge_dst(&self, e: EdgeId) -> VertexId {
        self.edst[e.index()]
    }

    fn edge_label(&self, e: EdgeId) -> ELabel {
        self.elabels[e.index()]
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
            f(e, self.edst[e.index()]);
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
            f(e, self.esrc[e.index()]);
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
            let run = self.out_run(s, el, self.vlabels[d.index()]);
            run.iter().any(|e| self.edst[e.index()] == d)
        } else {
            let run = self.in_run(d, el, self.vlabels[s.index()]);
            run.iter().any(|e| self.esrc[e.index()] == s)
        }
    }

    fn is_simple(&self) -> bool {
        self.simple
    }

    fn vertex_fp(&self, v: VertexId) -> u64 {
        self.fps[v.index()]
    }
}

/// A whole partition's transactions packed into shared arenas.
///
/// Per-transaction vertex/edge ids are **local** (dense from 0), so a
/// [`TxnRef`] looks exactly like a small [`FrozenGraph`]; the backing
/// storage is contiguous across all transactions.
pub struct TxnSet {
    vlabels: Vec<VLabel>,
    esrc: Vec<VertexId>,
    edst: Vec<VertexId>,
    elabels: Vec<ELabel>,
    out_off: Vec<u32>,
    out_adj: Vec<EdgeId>,
    out_lab: Vec<EdgeId>,
    in_off: Vec<u32>,
    in_adj: Vec<EdgeId>,
    in_lab: Vec<EdgeId>,
    /// Per-vertex fingerprints, packed alongside `vlabels`.
    fps: Vec<u64>,
    /// Transaction boundaries into the vertex arrays (`len = n + 1`).
    v_off: Vec<u32>,
    /// Transaction boundaries into the edge arrays (`len = n + 1`).
    e_off: Vec<u32>,
    /// Per transaction: no `(src, dst, label)` triple repeats.
    simple: Vec<bool>,
}

impl TxnSet {
    /// Freezes every transaction and packs the snapshots into shared
    /// arenas. Transaction order is preserved; ids inside transaction
    /// `i` are local dense ids, numbered like `transactions[i].freeze()`
    /// would number them.
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
            fps: Vec::new(),
            v_off: vec![0],
            e_off: vec![0],
            simple: Vec::with_capacity(transactions.len()),
        };
        for g in transactions {
            let fg = g.freeze();
            let adj_base = set.out_adj.len() as u32;
            // Offsets are global positions into the packed adjacency
            // arrays; the final per-graph offset duplicates the next
            // graph's first, so rows index as off[row]..off[row + 1] with
            // row = v_off[t] + local vertex id... the extra slot per graph
            // is avoided by dropping the leading 0 of each appended run.
            if set.out_off.is_empty() {
                set.out_off.push(0);
                set.in_off.push(0);
            }
            set.out_off
                .extend(fg.out_off.iter().skip(1).map(|&o| o + adj_base));
            set.in_off
                .extend(fg.in_off.iter().skip(1).map(|&o| o + adj_base));
            set.out_adj.extend_from_slice(&fg.out_adj);
            set.out_lab.extend_from_slice(&fg.out_lab);
            set.in_adj.extend_from_slice(&fg.in_adj);
            set.in_lab.extend_from_slice(&fg.in_lab);
            set.vlabels.extend_from_slice(&fg.vlabels);
            set.fps.extend_from_slice(&fg.fps);
            set.esrc.extend_from_slice(&fg.esrc);
            set.edst.extend_from_slice(&fg.edst);
            set.elabels.extend_from_slice(&fg.elabels);
            set.v_off.push(set.vlabels.len() as u32);
            set.e_off.push(set.elabels.len() as u32);
            set.simple.push(fg.simple);
        }
        set
    }

    /// Number of packed transactions.
    pub fn len(&self) -> usize {
        self.v_off.len() - 1
    }

    /// True if the set holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of transaction `i` (local dense ids).
    pub fn get(&self, i: usize) -> TxnRef<'_> {
        TxnRef {
            set: self,
            v_base: self.v_off[i],
            e_base: self.e_off[i],
            v_count: self.v_off[i + 1] - self.v_off[i],
            e_count: self.e_off[i + 1] - self.e_off[i],
            simple: self.simple[i],
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
    v_base: u32,
    e_base: u32,
    v_count: u32,
    e_count: u32,
    simple: bool,
}

impl TxnRef<'_> {
    #[inline]
    fn gv(&self, v: VertexId) -> usize {
        (self.v_base + v.0) as usize
    }

    #[inline]
    fn ge(&self, e: EdgeId) -> usize {
        (self.e_base + e.0) as usize
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
                    self.set.vlabels[(self.v_base + self.set.edst[ge].0) as usize].0,
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
                    self.set.vlabels[(self.v_base + self.set.esrc[ge].0) as usize].0,
                )
            },
            (el.0, vl.0),
        )
    }
}

impl GraphView for TxnRef<'_> {
    fn vertex_count(&self) -> usize {
        self.v_count as usize
    }

    fn edge_count(&self) -> usize {
        self.e_count as usize
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.v_count).map(VertexId)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.e_count).map(EdgeId)
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
        // The shorter of the two rows, as on `FrozenGraph`.
        if self.out_degree(s) <= self.in_degree(d) {
            let run = self.out_run(s, el, self.vertex_label(d));
            run.iter().any(|&e| self.set.edst[self.ge(e)] == d)
        } else {
            let run = self.in_run(d, el, self.vertex_label(s));
            run.iter().any(|&e| self.set.esrc[self.ge(e)] == s)
        }
    }

    fn is_simple(&self) -> bool {
        self.simple
    }

    fn vertex_fp(&self, v: VertexId) -> u64 {
        self.set.fps[self.gv(v)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::invariant_hash;
    use crate::generate::shapes;
    use crate::iso::are_isomorphic;

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

    #[test]
    fn freeze_thaw_roundtrip_is_isomorphic() {
        let g = messy_graph();
        let fg = g.freeze();
        assert_eq!(GraphView::vertex_count(&fg), g.vertex_count());
        assert_eq!(GraphView::edge_count(&fg), g.edge_count());
        let back = fg.thaw();
        assert!(are_isomorphic(&g, &back));
        assert_eq!(invariant_hash(&g), invariant_hash(&back));
        assert_eq!(invariant_hash(&g), fg.invariant_hash());
    }

    #[test]
    fn freeze_preserves_live_order_and_orig_ids() {
        let g = messy_graph();
        let fg = g.freeze();
        let live_v: Vec<VertexId> = g.vertices().collect();
        let live_e: Vec<EdgeId> = g.edges().collect();
        for (i, &v) in live_v.iter().enumerate() {
            assert_eq!(fg.orig_vertex(VertexId(i as u32)), v);
            assert_eq!(fg.vertex_label(VertexId(i as u32)), g.vertex_label(v));
        }
        for (i, &e) in live_e.iter().enumerate() {
            assert_eq!(fg.orig_edge(EdgeId(i as u32)), e);
            assert_eq!(fg.edge_label(EdgeId(i as u32)), g.edge_label(e));
        }
    }

    #[test]
    fn adjacency_iteration_matches_dense_arena() {
        // On a dense graph, frozen ids equal arena ids and every iterator
        // must yield the identical sequence — the byte-identity contract.
        let g = shapes::hub_and_spoke(5, 0, 1);
        let fg = g.freeze();
        for v in g.vertices() {
            let a: Vec<EdgeId> = g.out_edges(v).collect();
            let b: Vec<EdgeId> = GraphView::out_edges(&fg, v).collect();
            assert_eq!(a, b);
            let a: Vec<EdgeId> = g.in_edges(v).collect();
            let b: Vec<EdgeId> = GraphView::in_edges(&fg, v).collect();
            assert_eq!(a, b);
            assert_eq!(g.out_degree(v), GraphView::out_degree(&fg, v));
            assert_eq!(g.in_degree(v), GraphView::in_degree(&fg, v));
        }
    }

    #[test]
    fn visit_matching_agrees_with_linear_scan() {
        let g = messy_graph();
        let fg = g.freeze();
        let labels: Vec<VLabel> = (0..3).map(VLabel).collect();
        let elabels: Vec<ELabel> = vec![ELabel(0), ELabel(1), ELabel(7)];
        for v in GraphView::vertices(&fg) {
            for &el in &elabels {
                for &vl in &labels {
                    let mut fast: Vec<(EdgeId, VertexId)> = Vec::new();
                    fg.visit_out_matching(v, el, vl, &mut |e, d| fast.push((e, d)));
                    // The default (linear) implementation on the thawed
                    // graph is the reference.
                    let back = fg.thaw();
                    let mut slow: Vec<(EdgeId, VertexId)> = Vec::new();
                    back.visit_out_matching(v, el, vl, &mut |e, d| slow.push((e, d)));
                    assert_eq!(fast, slow, "out v={v:?} el={el:?} vl={vl:?}");
                    let mut fast_in: Vec<(EdgeId, VertexId)> = Vec::new();
                    fg.visit_in_matching(v, el, vl, &mut |e, s| fast_in.push((e, s)));
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
            assert_eq!(GraphView::vertex_count(&t), GraphView::vertex_count(&fg));
            assert_eq!(GraphView::edge_count(&t), GraphView::edge_count(&fg));
            for v in GraphView::vertices(&fg) {
                assert_eq!(t.vertex_label(v), fg.vertex_label(v));
                let a: Vec<EdgeId> = GraphView::out_edges(&t, v).collect();
                let b: Vec<EdgeId> = GraphView::out_edges(&fg, v).collect();
                assert_eq!(a, b, "txn {i} out row of {v:?}");
                let a: Vec<EdgeId> = GraphView::in_edges(&t, v).collect();
                let b: Vec<EdgeId> = GraphView::in_edges(&fg, v).collect();
                assert_eq!(a, b, "txn {i} in row of {v:?}");
            }
            for e in GraphView::edges(&fg) {
                assert_eq!(GraphView::edge(&t, e), GraphView::edge(&fg, e));
            }
            assert!(are_isomorphic(&fg.thaw(), g));
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
        assert!(g.freeze().is_simple(), "different labels or directions");
        let mut multi = g.clone();
        multi.add_edge(a, b, ELabel(2));
        assert!(!multi.freeze().is_simple());
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
        let mut n = 0u64;
        fg.visit_out_matching(VertexId(0), ELabel(1), VLabel(0), &mut |_, _| {});
        n += 1;
        let after = FrozenStats::snapshot().since(&before);
        assert!(after.freeze_count >= 1);
        assert!(after.csr_bytes >= fg.csr_bytes() as u64);
        assert!(after.adj_binary_searches >= n);
        assert!(
            after.fingerprint_bytes >= 8 * GraphView::vertex_count(&fg) as u64,
            "freeze must account its fingerprint array"
        );
        let mut names = Vec::new();
        after.publish(&mut |name, _| names.push(name.to_string()));
        assert_eq!(
            names,
            [
                "graph.freeze_count",
                "graph.csr_bytes",
                "graph.adj_binary_searches",
                "graph.fingerprint_bytes"
            ]
        );
    }
}

//! Frequent-neighborhood-pattern mining over one large frozen graph.
//!
//! The paper's Algorithm 1/2 partitions the OD graph only because FSG
//! needs a transaction set; this module follows Han & Wen's "Mining
//! Frequent Neighborhood Patterns in Large Labeled Graphs" instead and
//! makes **each vertex's induced r-hop neighborhood a transaction**: the
//! support of a pattern is the number of distinct center vertices whose
//! neighborhood embeds it. Support is anti-monotone under one-edge
//! extension (a neighborhood embedding a child embeds the parent), so
//! FSG's level-wise loop applies unchanged, with "center" in place of
//! "TID".
//!
//! This module therefore owns only the transactions. The [`NbhdIndex`]
//! holds per-center sorted id lists over one shared frozen CSR view
//! ([`TxnRef`], a [`tnet_graph::FrozenGraph`]'s only reader) —
//! no partitioning and no per-neighborhood graph copies. A [`NbhdView`]
//! adapts one center's `(members, edges)` pair to [`GraphView`] by
//! filtering the frozen label-sorted adjacency through a membership
//! binary search, and the index is a [`TxnSource`] whose transaction *i*
//! is center *i*'s view. [`mine_frozen`] builds the index and hands it to
//! [`crate::mine_source`]: candidate generation, TID-list (center-list)
//! intersection, closure pruning, embedding propagation and scratch VF2
//! are all the FSG path's.
//!
//! Determinism: centers are enumerated in ascending frozen-id order and
//! the FSG loop is byte-identical at any thread count, so the output is
//! too.

use crate::miner::mine_source;
use crate::types::{FsgConfig, FsgError, Support};
use tnet_exec::failpoint::Fault;
use tnet_exec::Exec;
use tnet_graph::frozen::TxnRef;
use tnet_graph::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use tnet_graph::hash::FxHashSet;
use tnet_graph::view::{GraphView, TxnSource};

/// Neighborhood-miner configuration.
#[derive(Clone, Debug)]
pub struct NbhdConfig {
    /// Neighborhood radius in (undirected) hops from the center; must be
    /// at least 1. Radius 1 is the interesting transportation regime —
    /// "what surrounds a terminal" — and keeps the index near the size
    /// of the edge set; larger radii trade index size for context.
    pub radius: usize,
    /// Minimum support, resolved against the number of centers (= vertex
    /// count of the mined graph).
    pub min_support: Support,
    /// Stop after patterns of this many edges.
    pub max_edges: usize,
    /// Per-(pattern, center) embedding-list cap, exactly as
    /// [`crate::FsgConfig::embedding_cap`]: `0` disables propagation and
    /// every support test is a scratch VF2 search (kept for differential
    /// testing).
    pub embedding_cap: usize,
}

impl Default for NbhdConfig {
    fn default() -> Self {
        NbhdConfig {
            radius: 1,
            min_support: Support::Fraction(0.05),
            max_edges: 10,
            embedding_cap: 256,
        }
    }
}

impl NbhdConfig {
    /// Sets the neighborhood radius.
    pub fn with_radius(mut self, r: usize) -> Self {
        self.radius = r;
        self
    }

    /// Sets the minimum support (in centers).
    pub fn with_support(mut self, s: Support) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the maximum pattern size in edges.
    pub fn with_max_edges(mut self, n: usize) -> Self {
        self.max_edges = n;
        self
    }

    /// Sets the per-(pattern, center) embedding cap (`0` = scratch only).
    pub fn with_embedding_cap(mut self, cap: usize) -> Self {
        self.embedding_cap = cap;
        self
    }
}

/// A mined frequent neighborhood pattern.
#[derive(Clone, Debug)]
pub struct NbhdPattern {
    /// Representative graph of the isomorphism class.
    pub graph: Graph,
    /// Number of supporting centers.
    pub support: usize,
    /// Frozen-graph ids of the supporting centers (ascending).
    pub centers: Vec<u32>,
}

impl NbhdPattern {
    pub fn edges(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Per-run instrumentation. The index counters are recorded under
/// `nbhd.*` (see [`NbhdStats::record_into`]); the support-counting
/// counters are copied from the FSG run, which records them under
/// `fsg.*` itself.
#[derive(Clone, Debug, Default)]
pub struct NbhdStats {
    /// Neighborhoods enumerated (= vertex count of the mined graph).
    pub centers: usize,
    /// Total member slots across all neighborhoods — the index's
    /// replication factor is `index_members / centers`.
    pub index_members: usize,
    /// Total edge slots across all neighborhoods.
    pub index_edges: usize,
    /// Candidates generated at each level (level 1 = single edges).
    pub candidates_per_level: Vec<usize>,
    /// Frequent patterns surviving at each level.
    pub frequent_per_level: Vec<usize>,
    /// Always 0: the FSG loop has no fingerprint filter. Kept so readers
    /// of the old counter still compile.
    pub fingerprint_rejects: usize,
    /// Pattern iso-class map probes in the FSG level loop.
    pub iso_class_checks: usize,
    /// Scratch VF2 deciders executed.
    pub iso_tests: usize,
    /// Parent embeddings extended by one edge in place of scratch VF2.
    pub embeddings_extended: usize,
    /// (pattern, center) embedding lists that spilled to inexact seeds.
    pub embeddings_spilled: usize,
    /// Peak bytes held by one level's SoA embedding stores.
    pub soa_bytes: usize,
}

impl NbhdStats {
    pub fn total_candidates(&self) -> usize {
        self.candidates_per_level.iter().sum()
    }

    pub fn total_frequent(&self) -> usize {
        self.frequent_per_level.iter().sum()
    }

    /// Folds the index counters into a [`tnet_obs::MetricsRegistry`]
    /// under `nbhd.*` names. The FSG run has already recorded the
    /// support-counting counters under `fsg.*`.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("nbhd.centers", self.centers as u64);
        metrics.add("nbhd.index_members", self.index_members as u64);
        metrics.add("nbhd.index_edges", self.index_edges as u64);
    }
}

/// Successful mining output.
#[derive(Clone, Debug)]
pub struct NbhdOutput {
    /// All frequent connected patterns, largest-support first.
    pub patterns: Vec<NbhdPattern>,
    pub stats: NbhdStats,
}

/// Mining failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NbhdError {
    /// `radius` was 0 — a zero-hop neighborhood is just the center
    /// vertex and can never embed an edge pattern.
    InvalidRadius,
    /// The execution handle was cancelled mid-run.
    Cancelled,
    /// An armed failpoint (`fsg::candidate_gen`) injected a fault.
    Fault(Fault),
}

impl std::fmt::Display for NbhdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NbhdError::InvalidRadius => write!(f, "neighborhood radius must be at least 1"),
            NbhdError::Cancelled => write!(f, "neighborhood mining run was cancelled"),
            NbhdError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for NbhdError {}

/// Per-center neighborhood index over one shared frozen view: two
/// flat id buffers with offsets (structure of arrays). Members and edge
/// ids per center are sorted ascending, which is what lets [`NbhdView`]
/// answer membership with a binary search and keep the [`GraphView`]
/// ascending-order contract for free.
pub struct NbhdIndex {
    member_off: Vec<u32>,
    members: Vec<VertexId>,
    edge_off: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl NbhdIndex {
    /// Builds the induced r-hop neighborhood of every vertex: BFS over
    /// undirected hops collects the member set, then every frozen edge
    /// with both endpoints inside is an edge of the neighborhood (the
    /// *induced* definition — what makes delegating edge-existence
    /// queries to the shared CSR sound). Centers fan out over `exec` and
    /// are concatenated in ascending-center order.
    pub fn build(fg: TxnRef<'_>, radius: usize, exec: &Exec) -> NbhdIndex {
        let centers: Vec<u32> = (0..fg.vertex_count() as u32).collect();
        let per_center: Vec<(Vec<VertexId>, Vec<EdgeId>)> =
            exec.par_map(&centers, |&c| build_one(fg, VertexId(c), radius));
        let mut index = NbhdIndex {
            member_off: Vec::with_capacity(centers.len() + 1),
            members: Vec::new(),
            edge_off: Vec::with_capacity(centers.len() + 1),
            edges: Vec::new(),
        };
        index.member_off.push(0);
        index.edge_off.push(0);
        for (members, edges) in per_center {
            index.members.extend_from_slice(&members);
            index.edges.extend_from_slice(&edges);
            index.member_off.push(index.members.len() as u32);
            index.edge_off.push(index.edges.len() as u32);
        }
        index
    }

    /// Number of centers (= vertices of the frozen graph).
    pub fn centers(&self) -> usize {
        self.member_off.len() - 1
    }

    /// Total member slots across all neighborhoods.
    pub fn member_slots(&self) -> usize {
        self.members.len()
    }

    /// Total edge slots across all neighborhoods.
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Read view of center `c`'s neighborhood.
    pub fn view<'a>(&'a self, fg: TxnRef<'a>, c: usize) -> NbhdView<'a> {
        NbhdView {
            fg,
            members: &self.members[self.member_off[c] as usize..self.member_off[c + 1] as usize],
            edges: &self.edges[self.edge_off[c] as usize..self.edge_off[c + 1] as usize],
        }
    }
}

/// One center's induced r-hop neighborhood: sorted members, and every
/// frozen edge with both endpoints among them (ascending).
fn build_one(fg: TxnRef<'_>, center: VertexId, radius: usize) -> (Vec<VertexId>, Vec<EdgeId>) {
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    seen.insert(center);
    let mut members = vec![center];
    let mut frontier = vec![center];
    for _ in 0..radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for e in fg.incident_edges(v) {
                let (s, d, _) = fg.edge(e);
                let w = if s == v { d } else { s };
                if seen.insert(w) {
                    members.push(w);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    members.sort_unstable();
    let mut edges = Vec::new();
    for &v in &members {
        for e in fg.out_edges(v) {
            if members.binary_search(&fg.edge_dst(e)).is_ok() {
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    (members, edges)
}

/// [`GraphView`] over one neighborhood: the shared graph's frozen ids,
/// adjacency delegated to its [`TxnRef`] and filtered by a membership
/// binary search. Because the neighborhood is *induced*, any frozen edge
/// between two members belongs to it — `has_edge_labeled` (the VF2
/// back-edge check) can delegate to the CSR's binary search unfiltered.
#[derive(Clone, Copy)]
pub struct NbhdView<'a> {
    fg: TxnRef<'a>,
    members: &'a [VertexId],
    edges: &'a [EdgeId],
}

impl NbhdView<'_> {
    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

impl GraphView for NbhdView<'_> {
    fn vertex_count(&self) -> usize {
        self.members.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().copied()
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().copied()
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        self.fg.vertex_label(v)
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        self.fg.edge(e)
    }

    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.fg
            .out_edges(v)
            .filter(|&e| self.contains(self.fg.edge_dst(e)))
    }

    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.fg
            .in_edges(v)
            .filter(|&e| self.contains(self.fg.edge_src(e)))
    }

    fn visit_out_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        // The frozen override binary-searches its label-sorted slice;
        // only the membership filter is added on top.
        self.fg.visit_out_matching(v, el, vl, &mut |e, d| {
            if self.contains(d) {
                f(e, d);
            }
        });
    }

    fn visit_in_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        self.fg.visit_in_matching(v, el, vl, &mut |e, s| {
            if self.contains(s) {
                f(e, s);
            }
        });
    }

    fn has_edge_labeled(&self, s: VertexId, d: VertexId, el: ELabel) -> bool {
        // Induced neighborhood: an edge between members is always in.
        // Callers only pass member vertices (VF2 images).
        debug_assert!(self.contains(s) && self.contains(d));
        self.fg.has_edge_labeled(s, d, el)
    }

    fn is_simple(&self) -> bool {
        // An induced subgraph repeats a triple only if the graph does.
        self.fg.is_simple()
    }
}

/// The neighborhood index as a [`TxnSource`]: transaction *i* is center
/// *i*'s [`NbhdView`], so a TID list is a center list.
struct NbhdTxns<'a> {
    fg: TxnRef<'a>,
    index: &'a NbhdIndex,
}

impl TxnSource for NbhdTxns<'_> {
    type View<'b>
        = NbhdView<'b>
    where
        Self: 'b;

    fn txn_count(&self) -> usize {
        self.index.centers()
    }

    fn txn(&self, i: usize) -> NbhdView<'_> {
        self.index.view(self.fg, i)
    }
}

/// Mines frequent neighborhood patterns of `g`: freezes a CSR snapshot
/// and delegates to [`mine_frozen`].
///
/// `g` must be a simple graph (no parallel `(src, dst, label)` triples) —
/// run [`Graph::dedup_edges`] first, exactly as for the FSG path.
pub fn mine_neighborhoods(
    g: &Graph,
    cfg: &NbhdConfig,
    exec: &Exec,
) -> Result<NbhdOutput, NbhdError> {
    mine_frozen(g.freeze().view(), cfg, exec)
}

/// Mines all frequent connected neighborhood patterns of `fg` directly
/// on the frozen CSR — no partitioning, no per-transaction graphs. The
/// [`NbhdIndex`] is built once, then the FSG miner runs over it with
/// centers as transactions.
///
/// # Errors
/// - [`NbhdError::InvalidRadius`] when `cfg.radius == 0`.
/// - [`NbhdError::Cancelled`] when `exec` is cancelled mid-run.
/// - [`NbhdError::Fault`] when the `fsg::candidate_gen` failpoint fires.
pub fn mine_frozen(fg: TxnRef<'_>, cfg: &NbhdConfig, exec: &Exec) -> Result<NbhdOutput, NbhdError> {
    if cfg.radius == 0 {
        return Err(NbhdError::InvalidRadius);
    }
    if exec.is_cancelled() {
        return Err(NbhdError::Cancelled);
    }
    let span_total = exec.span().time("nbhd");
    let span = span_total.span().clone();
    let index = {
        let _t = span.time("neighborhoods");
        NbhdIndex::build(fg, cfg.radius, exec)
    };
    let fsg_cfg = FsgConfig {
        min_support: cfg.min_support,
        max_edges: cfg.max_edges,
        memory_budget: None,
        embedding_cap: cfg.embedding_cap,
    };
    let out = mine_source(
        &NbhdTxns { fg, index: &index },
        &fsg_cfg,
        &exec.with_span(span),
    )
    .map_err(|e| match e {
        FsgError::Fault(fault) => NbhdError::Fault(fault),
        // The budget is off (`memory_budget: None`), and a budget abort
        // cancels the handle before it returns anyway.
        FsgError::Cancelled | FsgError::MemoryBudgetExceeded { .. } => NbhdError::Cancelled,
    })?;
    let stats = NbhdStats {
        centers: index.centers(),
        index_members: index.member_slots(),
        index_edges: index.edge_slots(),
        candidates_per_level: out.stats.candidates_per_level,
        frequent_per_level: out.stats.frequent_per_level,
        fingerprint_rejects: 0,
        iso_class_checks: out.stats.iso_class_checks,
        iso_tests: out.stats.iso_tests,
        embeddings_extended: out.stats.embeddings_extended,
        embeddings_spilled: out.stats.embeddings_spilled,
        soa_bytes: out.stats.soa_bytes,
    };
    stats.record_into(exec.metrics());
    let patterns = out
        .patterns
        .into_iter()
        .map(|p| NbhdPattern {
            graph: p.graph,
            support: p.support,
            centers: p.tids,
        })
        .collect();
    Ok(NbhdOutput { patterns, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::shapes;
    use tnet_graph::iso::are_isomorphic;

    fn cfg(count: usize) -> NbhdConfig {
        NbhdConfig::default()
            .with_support(Support::Count(count))
            .with_max_edges(4)
    }

    fn mine(g: &Graph, cfg: &NbhdConfig) -> NbhdOutput {
        mine_neighborhoods(g, cfg, &Exec::sequential()).unwrap()
    }

    #[test]
    fn radius_zero_rejected() {
        let g = shapes::chain(2, 0, 1);
        let err = mine_neighborhoods(&g, &cfg(1).with_radius(0), &Exec::sequential());
        assert_eq!(err.unwrap_err(), NbhdError::InvalidRadius);
    }

    #[test]
    fn index_is_induced_and_sorted() {
        // chain a -> b -> c: radius 1 of b covers everything; of a only
        // {a, b} and the one edge between them.
        let g = shapes::chain(2, 0, 1);
        let fg = g.freeze();
        let index = NbhdIndex::build(fg.view(), 1, &Exec::sequential());
        assert_eq!(index.centers(), 3);
        let va = index.view(fg.view(), 0);
        assert_eq!(GraphView::vertex_count(&va), 2);
        assert_eq!(GraphView::edge_count(&va), 1);
        let vb = index.view(fg.view(), 1);
        assert_eq!(GraphView::vertex_count(&vb), 3);
        assert_eq!(GraphView::edge_count(&vb), 2);
        let members: Vec<VertexId> = GraphView::vertices(&vb).collect();
        assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted members");
    }

    #[test]
    fn chain_supports_count_centers() {
        // Path of 4 edges, radius 1: the single-edge pattern embeds in
        // every center's neighborhood (all 5 centers); the 2-chain embeds
        // wherever a 2-hop path is induced — every center whose 1-hop
        // ball contains two consecutive edges, i.e. the 4 interior-ish
        // centers (ends see only one edge).
        let g = shapes::chain(4, 0, 1);
        let out = mine(&g, &cfg(1));
        let single = shapes::chain(1, 0, 1);
        let two = shapes::chain(2, 0, 1);
        let p1 = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &single))
            .unwrap();
        assert_eq!(p1.support, 5);
        assert_eq!(p1.centers, vec![0, 1, 2, 3, 4]);
        let p2 = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &two))
            .unwrap();
        // Centers 1..4 each see both edges of some 2-chain; ends 0 and 4
        // see a single edge only... center 0's ball is {0,1} (1 edge), so
        // support is the 3 interior vertices of the 5-path.
        assert_eq!(p2.support, 3);
        assert_eq!(p2.centers, vec![1, 2, 3]);
    }

    #[test]
    fn radius_covering_graph_gives_full_support() {
        // Radius ≥ diameter: every neighborhood is the whole (connected)
        // graph, so every pattern with at least one embedding has
        // support = vertex count.
        let g = shapes::cycle(4, 0, 1);
        let out = mine(&g, &cfg(4).with_radius(4));
        assert!(!out.patterns.is_empty());
        for p in &out.patterns {
            assert_eq!(p.support, 4, "pattern {:?}", p.graph);
        }
        // The full cycle itself is found at max_edges = 4.
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &shapes::cycle(4, 0, 1))));
    }

    #[test]
    fn self_loops_mined() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(1));
        let b = g.add_vertex(VLabel(1));
        g.add_edge(a, a, ELabel(0));
        g.add_edge(a, b, ELabel(2));
        let out = mine(&g, &cfg(1).with_radius(2));
        let mut loop_pat = Graph::new();
        let v = loop_pat.add_vertex(VLabel(1));
        loop_pat.add_edge(v, v, ELabel(0));
        let lp = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &loop_pat))
            .unwrap();
        assert_eq!(lp.support, 2, "both centers see the loop at radius 2");
        // Loop + edge combination pattern is also found.
        let mut combo = loop_pat.clone();
        let w = combo.add_vertex(VLabel(1));
        let v0 = combo.vertices().next().unwrap();
        combo.add_edge(v0, w, ELabel(2));
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &combo)));
    }

    #[test]
    fn propagated_matches_scratch_at_every_cap() {
        use tnet_graph::generate::{random_graph, RandomGraphConfig};
        let g = {
            let mut g = random_graph(
                &RandomGraphConfig {
                    vertices: 24,
                    edges: 60,
                    vertex_labels: 2,
                    edge_labels: 3,
                    self_loops: true,
                },
                17,
            );
            // A hub with eight same-labeled spokes: its neighborhood
            // holds far more two-spoke embeddings than edges, so a tiny
            // cap must spill there.
            let vs: Vec<VertexId> = g.vertices().collect();
            let hub = g.add_vertex(g.vertex_label(vs[0]));
            for &v in &vs[..8] {
                let spoke = g.add_vertex(g.vertex_label(v));
                g.add_edge(hub, spoke, ELabel(0));
                g.add_edge(spoke, v, ELabel(1));
            }
            g.dedup_edges();
            g
        };
        let base = mine(&g, &cfg(3));
        assert!(!base.patterns.is_empty());
        for alt_cfg in [cfg(3).with_embedding_cap(0), cfg(3).with_embedding_cap(1)] {
            let alt = mine(&g, &alt_cfg);
            assert_eq!(base.patterns.len(), alt.patterns.len());
            for (a, b) in base.patterns.iter().zip(&alt.patterns) {
                assert_eq!(a.support, b.support);
                assert_eq!(a.centers, b.centers);
                assert!(are_isomorphic(&a.graph, &b.graph));
            }
        }
        // The tiny cap must exercise the spill/scratch machinery.
        let tiny = mine(&g, &cfg(3).with_embedding_cap(1));
        assert!(tiny.stats.embeddings_spilled > 0);
    }

    #[test]
    fn stats_are_recorded() {
        let g = shapes::cycle(5, 0, 1);
        let out = mine(&g, &cfg(2).with_radius(2));
        assert_eq!(out.stats.centers, 5);
        assert!(out.stats.index_members >= 5);
        assert!(out.stats.index_edges >= 5);
        assert_eq!(
            out.stats.candidates_per_level.len(),
            out.stats.frequent_per_level.len()
        );
        assert!(out.stats.total_frequent() >= out.patterns.len());
        let m = tnet_obs::MetricsRegistry::new();
        out.stats.record_into(&m);
        assert_eq!(m.get("nbhd.centers"), 5);
    }

    #[test]
    fn support_is_antitone_in_extension() {
        let g = shapes::hub_and_spoke(4, 0, 1);
        let out = mine(&g, &cfg(1).with_radius(2));
        for p in &out.patterns {
            for sub in crate::extend::connected_sub_patterns(&p.graph) {
                if let Some(q) = out.patterns.iter().find(|q| are_isomorphic(&q.graph, &sub)) {
                    assert!(q.support >= p.support);
                }
            }
        }
    }
}

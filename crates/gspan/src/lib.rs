//! # tnet-gspan
//!
//! A depth-first, pattern-growth frequent-subgraph miner in the spirit of
//! gSpan (Yan & Han 2002, reference [23] of the paper). Where `tnet-fsg`
//! materializes a full candidate set per level (Apriori), this miner
//! grows one pattern at a time along a DFS of pattern space, keeping only
//! the current growth path in memory — the property that §8's analysis
//! identifies as the missing ingredient when candidate sets outgrow RAM.
//!
//! Deviation from the original algorithm (documented in DESIGN.md):
//! duplicate exploration is prevented with isomorphism-class lookups
//! (invariant hash + exact VF2 check) instead of minimum-DFS-code
//! canonicality. The search space and output are identical; only the
//! dedup mechanism differs.
//!
//! ```
//! use tnet_gspan::{mine_dfs, GspanConfig};
//! use tnet_fsg::Support;
//! use tnet_graph::generate::shapes;
//!
//! let txns: Vec<_> = (0..4).map(|_| shapes::hub_and_spoke(3, 0, 1)).collect();
//! let cfg = GspanConfig { min_support: Support::Count(4), max_edges: 4, ..Default::default() };
//! let out = mine_dfs(&txns, &cfg).unwrap();
//! assert!(out.patterns.iter().any(|p| p.graph.edge_count() == 3));
//! ```

use tnet_exec::Exec;
use tnet_fsg::embed::{grow_store, level1_store, EmbStore, Grown};
use tnet_fsg::extend::{extend_pattern, EdgeVocab};
use tnet_fsg::{FrequentPattern, Support};
use tnet_graph::canon::IsoClassMap;
use tnet_graph::fingerprint::{graph_fingerprints, may_embed};
use tnet_graph::frozen::TxnSet;
use tnet_graph::graph::{ELabel, Graph, VLabel};
use tnet_graph::hash::{FxHashMap, FxHashSet};
use tnet_graph::iso::{derive_extension, Matcher};
use tnet_graph::view::{GraphView, TxnSource};

/// Configuration for the DFS miner.
#[derive(Clone, Debug)]
pub struct GspanConfig {
    pub min_support: Support,
    pub max_edges: usize,
    /// Abort with [`GspanError::MemoryBudgetExceeded`] when the estimated
    /// live bytes (visited classes + result patterns + TID lists) cross
    /// this budget. `None` disables the check. Same semantics as
    /// [`tnet_fsg::FsgConfig::memory_budget`], so the two miners are
    /// boundable by the same knob.
    pub memory_budget: Option<usize>,
    /// Per-(pattern, transaction) embedding-list cap for propagated
    /// support counting, with the same semantics as
    /// [`tnet_fsg::FsgConfig::embedding_cap`]: occurrence lists ride the
    /// DFS growth stack and are extended one edge at a time; overflowing
    /// lists are truncated to inexact seed prefixes whose empty
    /// extensions are re-verified from scratch. `0` disables propagation
    /// (every support test is a scratch VF2 search).
    pub embedding_cap: usize,
}

impl Default for GspanConfig {
    fn default() -> Self {
        GspanConfig {
            min_support: Support::Fraction(0.05),
            max_edges: 10,
            memory_budget: None,
            embedding_cap: 256,
        }
    }
}

/// DFS mining failure.
#[derive(Clone, Debug)]
pub enum GspanError {
    /// The live working set was estimated at `estimated_bytes`, above
    /// the configured budget. `partial_stats` covers the work done.
    MemoryBudgetExceeded {
        estimated_bytes: usize,
        budget: usize,
        partial_stats: GspanStats,
    },
    /// The mine's execution handle was cancelled (caller, deadline, or a
    /// sibling abort through a shared token) before the run completed.
    Cancelled,
}

impl std::fmt::Display for GspanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GspanError::MemoryBudgetExceeded {
                estimated_bytes,
                budget,
                ..
            } => write!(
                f,
                "DFS working set needs ~{estimated_bytes} bytes, budget is {budget}"
            ),
            GspanError::Cancelled => write!(f, "mining run was cancelled"),
        }
    }
}

impl std::error::Error for GspanError {}

/// Instrumentation emphasizing the memory contrast with FSG.
#[derive(Clone, Debug, Default)]
pub struct GspanStats {
    /// Patterns whose support was counted.
    pub counted: usize,
    /// Extensions skipped because their iso class was already visited.
    pub dedup_hits: usize,
    /// Deepest growth-stack depth reached (= max simultaneously
    /// materialized patterns, the peak-memory analogue of FSG's
    /// per-level candidate count).
    pub max_depth: usize,
    /// Subgraph-isomorphism tests run. With embedding propagation these
    /// only settle unverified "no"s from truncated occurrence lists.
    pub iso_tests: usize,
    /// Peak estimated live bytes (visited classes + results + TIDs) —
    /// the number the memory budget is checked against.
    pub peak_live_bytes: usize,
    /// Parent occurrences extended by one edge in place of scratch VF2
    /// support tests.
    pub embeddings_extended: usize,
    /// (pattern, transaction) occurrence lists that overflowed the cap
    /// and were truncated to inexact seed prefixes.
    pub embeddings_spilled: usize,
    /// Scratch VF2 searches skipped because a pattern vertex had no
    /// fingerprint-compatible transaction vertex.
    pub fingerprint_rejects: usize,
    /// Peak bytes held by the DFS stack's structure-of-arrays occurrence
    /// lists (the flat `VertexId` buffers riding the growth path).
    pub soa_bytes: usize,
}

impl GspanStats {
    /// Folds this run's counters into a [`tnet_obs::MetricsRegistry`]
    /// under `gspan.*` names (the unified namespace; see DESIGN.md §10).
    /// Totals add; peaks keep their high-water mark.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("gspan.counted", self.counted as u64);
        metrics.add("gspan.dedup_hits", self.dedup_hits as u64);
        metrics.add("gspan.iso_tests", self.iso_tests as u64);
        metrics.add("gspan.embeddings_extended", self.embeddings_extended as u64);
        metrics.add("gspan.embeddings_spilled", self.embeddings_spilled as u64);
        metrics.add("gspan.fingerprint_rejects", self.fingerprint_rejects as u64);
        metrics.record_max("gspan.max_depth", self.max_depth as u64);
        metrics.record_max("gspan.peak_live_bytes", self.peak_live_bytes as u64);
        metrics.record_max("gspan.soa_bytes", self.soa_bytes as u64);
    }
}

/// Estimated heap bytes for one materialized pattern: mirrors
/// `tnet-fsg`'s per-candidate model so budgets mean the same thing to
/// both miners.
fn pattern_bytes(vertices: usize, edges: usize, tids: usize) -> usize {
    256 + vertices * 110 + edges * 48 + tids * 4
}

/// Mining output.
#[derive(Clone, Debug)]
pub struct GspanOutput {
    /// Frequent connected patterns, largest support first.
    pub patterns: Vec<FrequentPattern>,
    pub stats: GspanStats,
}

/// Mines all frequent connected subgraphs depth-first on the current
/// thread. Equivalent to [`mine_dfs_with`] on a sequential pool.
///
/// Same contract as [`tnet_fsg::mine`]: inputs must be simple graphs;
/// output patterns are deduplicated by isomorphism class with exact
/// supports and TID lists.
///
/// # Errors
/// [`GspanError::MemoryBudgetExceeded`] when the live working set
/// outgrows the configured budget.
pub fn mine_dfs(transactions: &[Graph], cfg: &GspanConfig) -> Result<GspanOutput, GspanError> {
    mine_dfs_with(transactions, cfg, &Exec::sequential())
}

/// As [`mine_dfs`], fanning each candidate's support count (the VF2
/// search over its parent's TIDs) across `exec`'s workers.
///
/// Freezes the transactions into a [`TxnSet`] (contiguous CSR arenas
/// with label-sorted adjacency) before walking — embedding extension
/// then binary-searches candidate edges. The DFS walk itself stays
/// sequential — the `visited` set is inherently serial — and TIDs are
/// reassembled in input order, so the output is byte-identical to
/// [`mine_dfs_source`] over the arena slice and to itself at any thread
/// count.
///
/// # Errors
/// - [`GspanError::MemoryBudgetExceeded`] on a budget overrun; the
///   handle's token is cancelled first, mirroring the FSG contract.
/// - [`GspanError::Cancelled`] when `exec` (or an ancestor handle) is
///   cancelled mid-run.
pub fn mine_dfs_with(
    transactions: &[Graph],
    cfg: &GspanConfig,
    exec: &Exec,
) -> Result<GspanOutput, GspanError> {
    let frozen = TxnSet::freeze(transactions);
    mine_dfs_source(&frozen, cfg, exec)
}

/// The representation-generic DFS core behind [`mine_dfs_with`] (frozen
/// [`TxnSet`]). Passing the arena slice (`&txns[..]`) traverses the
/// mutable representation directly — the frozen-vs-arena differential
/// and benchmark use it as the oracle.
pub fn mine_dfs_source<T: TxnSource + ?Sized>(
    transactions: &T,
    cfg: &GspanConfig,
    exec: &Exec,
) -> Result<GspanOutput, GspanError> {
    if exec.is_cancelled() {
        return Err(GspanError::Cancelled);
    }
    // Per-TID support work is small and uniform; L2-sized chunks keep a
    // worker's transaction slabs hot without starving the claim cursor.
    let exec_l2 = exec.with_chunk_items(tnet_exec::L2_TXN_CHUNK_ITEMS);
    let exec = &exec_l2;
    // Phase timers stay on the sequential DFS control path (the walk is
    // serial; only support counting fans out), so span registration
    // order — and `--trace` output — is thread-count independent.
    let span_total = exec.span().time("gspan");
    let span = span_total.span().clone();
    let min_support = cfg.min_support.resolve(transactions.txn_count());
    let stats = GspanStats::default();

    let level1_timer = span.time("level1");
    // Frequent single edges (shared logic with FSG's level 1).
    let mut level1: FxHashMap<(u32, u32, u32, bool), Vec<u32>> = FxHashMap::default();
    let mut seen: FxHashSet<(u32, u32, u32, bool)> = FxHashSet::default();
    for tid in 0..transactions.txn_count() {
        let t = transactions.txn(tid);
        seen.clear();
        for e in t.edges() {
            let (s, d, l) = t.edge(e);
            let key = (t.vertex_label(s).0, l.0, t.vertex_label(d).0, s == d);
            if seen.insert(key) {
                level1.entry(key).or_default().push(tid as u32);
            }
        }
    }
    let mut seeds: Vec<FrequentPattern> = Vec::new();
    let mut vocab: Vec<EdgeVocab> = Vec::new();
    for ((sl, el, dl, is_loop), mut tids) in level1 {
        if tids.len() < min_support {
            continue;
        }
        tids.sort_unstable();
        let mut g = Graph::new();
        let s = g.add_vertex(VLabel(sl));
        if is_loop {
            g.add_edge(s, s, ELabel(el));
        } else {
            let d = g.add_vertex(VLabel(dl));
            g.add_edge(s, d, ELabel(el));
        }
        vocab.push(EdgeVocab {
            src: VLabel(sl),
            label: ELabel(el),
            dst: VLabel(dl),
        });
        seeds.push(FrequentPattern {
            support: tids.len(),
            graph: g,
            tids,
        });
    }
    vocab.sort_by_key(|v| (v.src, v.label, v.dst));
    vocab.dedup();
    drop(level1_timer);
    span.child("extend");
    span.child("support_count");

    let mut walk = Walk {
        span: &span,
        transactions,
        vocab: &vocab,
        min_support,
        max_edges: cfg.max_edges,
        budget: cfg.memory_budget,
        embedding_cap: cfg.embedding_cap,
        exec,
        visited: IsoClassMap::new(),
        results: Vec::new(),
        stats,
        live_bytes: 0,
        live_soa_bytes: 0,
    };
    for seed in seeds {
        walk.charge(&seed)?;
        walk.visited.insert(seed.graph.clone(), ());
        let seed_stores = if cfg.embedding_cap > 0 && cfg.max_edges > 1 {
            level1_store(
                &seed,
                transactions,
                cfg.embedding_cap,
                &mut walk.stats.embeddings_spilled,
            )
        } else {
            Vec::new()
        };
        let soa = seed_stores.iter().map(|s| s.byte_len()).sum::<usize>();
        walk.live_soa_bytes += soa;
        walk.stats.soa_bytes = walk.stats.soa_bytes.max(walk.live_soa_bytes);
        walk.grow(&seed, &seed_stores, 1)?;
        walk.live_soa_bytes -= soa;
        walk.results.push(seed);
    }
    let Walk {
        mut results, stats, ..
    } = walk;
    results.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(b.graph.edge_count().cmp(&a.graph.edge_count()))
    });
    stats.record_into(exec.metrics());
    Ok(GspanOutput {
        patterns: results,
        stats,
    })
}

/// The mutable state of one DFS mine: the visited iso-class set, the
/// accumulated results, and the running live-bytes estimate the memory
/// budget is enforced against.
struct Walk<'a, T: TxnSource + ?Sized> {
    /// The miner's span node; `grow` times its extend / support phases
    /// under it.
    span: &'a tnet_obs::Span,
    transactions: &'a T,
    vocab: &'a [EdgeVocab],
    min_support: usize,
    max_edges: usize,
    budget: Option<usize>,
    embedding_cap: usize,
    exec: &'a Exec,
    visited: IsoClassMap<()>,
    results: Vec<FrequentPattern>,
    stats: GspanStats,
    live_bytes: usize,
    /// Running bytes held by the growth path's SoA occurrence lists;
    /// `stats.soa_bytes` tracks its high-water mark.
    live_soa_bytes: usize,
}

impl<T: TxnSource + ?Sized> Walk<'_, T> {
    /// Accounts one retained pattern against the budget.
    fn charge(&mut self, p: &FrequentPattern) -> Result<(), GspanError> {
        self.live_bytes +=
            pattern_bytes(p.graph.vertex_count(), p.graph.edge_count(), p.tids.len());
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        if let Some(budget) = self.budget {
            if self.live_bytes > budget {
                // Same contract as FSG: stop siblings on a shared token
                // before surfacing the abort.
                self.exec.cancel();
                return Err(GspanError::MemoryBudgetExceeded {
                    estimated_bytes: self.live_bytes,
                    budget,
                    partial_stats: self.stats.clone(),
                });
            }
        }
        Ok(())
    }

    fn grow(
        &mut self,
        parent: &FrequentPattern,
        parent_stores: &[EmbStore],
        depth: usize,
    ) -> Result<(), GspanError> {
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if parent.graph.edge_count() >= self.max_edges {
            return Ok(());
        }
        let propagate = self.embedding_cap > 0 && parent_stores.len() == parent.tids.len();
        // One parent's extensions — the only candidate buffer ever held.
        let mut extensions: IsoClassMap<Vec<usize>> = IsoClassMap::new();
        {
            let _t = self.span.time("extend");
            extend_pattern(&parent.graph, self.vocab, 0, None, &mut extensions);
        }
        for (candidate, _) in extensions.into_iter_pairs() {
            if self.exec.is_cancelled() {
                return Err(GspanError::Cancelled);
            }
            if self.visited.contains(&candidate) {
                self.stats.dedup_hits += 1;
                continue;
            }
            self.visited.insert(candidate.clone(), ());
            let support_timer = self.span.time("support_count");
            let (tids, child_stores) = if propagate {
                // The iso-class representative is the first graph
                // inserted for the class: the parent plus one appended
                // edge. Recover that edge and grow the parent's
                // occurrence lists by it instead of searching from
                // scratch; the lists ride the DFS stack alongside the
                // patterns themselves.
                let ext = derive_extension(parent.graph.vertex_count(), &candidate)
                    .expect("candidate is a one-edge extension of its parent");
                let witness_only = candidate.edge_count() >= self.max_edges;
                // Scratch machinery (matcher + pattern fingerprints) is
                // only ever needed to settle an unverified "no" from a
                // truncated (inexact) seed list.
                let scratch = parent_stores
                    .iter()
                    .any(|s| !s.exact)
                    .then(|| (Matcher::new(&candidate), graph_fingerprints(&candidate)));
                let cap = self.embedding_cap;
                let transactions = self.transactions;
                let idx: Vec<usize> = (0..parent.tids.len()).collect();
                let outcomes = self.exec.par_map(&idx, |&i| {
                    let txn = transactions.txn(parent.tids[i] as usize);
                    let mut extended = 0usize;
                    let mut spilled = 0usize;
                    match grow_store(
                        &txn,
                        &parent_stores[i],
                        &ext,
                        cap,
                        witness_only,
                        &mut extended,
                        &mut spilled,
                    ) {
                        Grown::Absent => (false, None, extended, spilled, false, false),
                        Grown::Unverified => {
                            let (matcher, fps) =
                                scratch.as_ref().expect("inexact store implies a matcher");
                            if !may_embed(fps, &txn) {
                                return (false, None, extended, spilled, false, true);
                            }
                            let hit = matcher.matches(&txn);
                            let store = (hit && !witness_only)
                                .then(|| EmbStore::new(candidate.vertex_count(), false));
                            (hit, store, extended, spilled, true, false)
                        }
                        Grown::Witnessed { store } => {
                            (true, store, extended, spilled, false, false)
                        }
                    }
                });
                let mut tids: Vec<u32> = Vec::new();
                let mut child_stores: Vec<EmbStore> = Vec::new();
                for (i, (hit, store, extended, spilled, scratched, fp_rejected)) in
                    outcomes.into_iter().enumerate()
                {
                    self.stats.embeddings_extended += extended;
                    self.stats.embeddings_spilled += spilled;
                    if scratched {
                        self.stats.iso_tests += 1;
                    }
                    if fp_rejected {
                        self.stats.fingerprint_rejects += 1;
                    }
                    if hit {
                        tids.push(parent.tids[i]);
                        if let Some(st) = store {
                            child_stores.push(st);
                        }
                    }
                }
                (tids, child_stores)
            } else {
                let matcher = Matcher::new(&candidate);
                let fps = graph_fingerprints(&candidate);
                // Support counting is the hot loop; fan the VF2 searches
                // over the pool and keep matching TIDs in input order.
                // 0 = fingerprint reject, 1 = VF2 miss, 2 = VF2 hit.
                let hits = self.exec.par_map(&parent.tids, |&tid| {
                    let txn = self.transactions.txn(tid as usize);
                    if !may_embed(&fps, &txn) {
                        return 0u8;
                    }
                    if matcher.matches(&txn) {
                        2
                    } else {
                        1
                    }
                });
                let mut tids: Vec<u32> = Vec::new();
                for (&tid, h) in parent.tids.iter().zip(&hits) {
                    match h {
                        0 => self.stats.fingerprint_rejects += 1,
                        1 => self.stats.iso_tests += 1,
                        _ => {
                            self.stats.iso_tests += 1;
                            tids.push(tid);
                        }
                    }
                }
                (tids, Vec::new())
            };
            self.stats.counted += 1;
            // Dropped before recursing: a nested grow's phases must not
            // double-count inside this candidate's support time.
            drop(support_timer);
            if tids.len() >= self.min_support {
                let fp = FrequentPattern {
                    support: tids.len(),
                    graph: candidate,
                    tids,
                };
                self.charge(&fp)?;
                let soa = child_stores.iter().map(|s| s.byte_len()).sum::<usize>();
                self.live_soa_bytes += soa;
                self.stats.soa_bytes = self.stats.soa_bytes.max(self.live_soa_bytes);
                self.grow(&fp, &child_stores, depth + 1)?;
                self.live_soa_bytes -= soa;
                self.results.push(fp);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_fsg::{mine, FsgConfig};
    use tnet_graph::generate::shapes;
    use tnet_graph::iso::are_isomorphic;

    fn cfg(count: usize, max_edges: usize) -> GspanConfig {
        GspanConfig {
            min_support: Support::Count(count),
            max_edges,
            ..Default::default()
        }
    }

    #[test]
    fn agrees_with_fsg_on_shapes() {
        // Both miners must produce the same pattern set (up to iso) with
        // the same supports.
        let txns: Vec<Graph> = (0..5)
            .map(|i| {
                if i % 2 == 0 {
                    shapes::hub_and_spoke(3, 0, 1)
                } else {
                    shapes::chain(3, 0, 1)
                }
            })
            .collect();
        let dfs = mine_dfs(&txns, &cfg(2, 4)).unwrap();
        let apriori = mine(
            &txns,
            &FsgConfig::default()
                .with_support(Support::Count(2))
                .with_max_edges(4),
        )
        .unwrap();
        assert_eq!(dfs.patterns.len(), apriori.patterns.len());
        for p in &dfs.patterns {
            let twin = apriori
                .patterns
                .iter()
                .find(|q| are_isomorphic(&p.graph, &q.graph))
                .unwrap_or_else(|| panic!("FSG missing {:?}", p.graph));
            assert_eq!(p.support, twin.support);
            assert_eq!(p.tids, twin.tids);
        }
    }

    #[test]
    fn agrees_with_fsg_on_random_graphs() {
        use tnet_graph::generate::{random_transactions, RandomGraphConfig};
        let txns = random_transactions(
            8,
            &RandomGraphConfig {
                vertices: 6,
                edges: 9,
                vertex_labels: 2,
                edge_labels: 2,
                self_loops: true,
            },
            31,
        );
        let txns: Vec<Graph> = txns
            .into_iter()
            .map(|mut g| {
                g.dedup_edges();
                g
            })
            .collect();
        let dfs = mine_dfs(&txns, &cfg(2, 3)).unwrap();
        let apriori = mine(
            &txns,
            &FsgConfig::default()
                .with_support(Support::Count(2))
                .with_max_edges(3),
        )
        .unwrap();
        assert_eq!(
            dfs.patterns.len(),
            apriori.patterns.len(),
            "pattern-set size mismatch"
        );
        for p in &dfs.patterns {
            assert!(apriori
                .patterns
                .iter()
                .any(|q| are_isomorphic(&p.graph, &q.graph) && q.support == p.support));
        }
    }

    #[test]
    fn depth_first_memory_profile() {
        // The DFS miner's peak (max_depth) stays tiny even when the
        // total pattern count is large.
        let txns: Vec<Graph> = (0..4).map(|_| shapes::chain(6, 0, 1)).collect();
        let out = mine_dfs(&txns, &cfg(4, 6)).unwrap();
        assert!(out.stats.max_depth <= 6);
        assert!(out.patterns.len() >= 6, "chains of each length frequent");
    }

    #[test]
    fn empty_input() {
        let out = mine_dfs(&[], &cfg(1, 3)).unwrap();
        assert!(out.patterns.is_empty());
    }

    #[test]
    fn memory_budget_aborts_and_cancels_pool() {
        let txns: Vec<Graph> = (0..4).map(|_| shapes::chain(6, 0, 1)).collect();
        let cfg = GspanConfig {
            min_support: Support::Count(4),
            max_edges: 6,
            memory_budget: Some(1_024),
            ..Default::default()
        };
        let exec = Exec::new(2);
        match mine_dfs_with(&txns, &cfg, &exec) {
            Err(GspanError::MemoryBudgetExceeded {
                estimated_bytes,
                budget,
                ..
            }) => {
                assert!(estimated_bytes > budget);
                assert_eq!(budget, 1_024);
            }
            other => panic!("expected budget abort, got {other:?}"),
        }
        assert!(exec.is_cancelled(), "abort must cancel the handle's token");
    }

    #[test]
    fn cancelled_handle_stops_the_walk() {
        let txns: Vec<Graph> = (0..4).map(|_| shapes::chain(6, 0, 1)).collect();
        let exec = Exec::new(2);
        exec.cancel();
        match mine_dfs_with(&txns, &cfg(4, 6), &exec) {
            Err(GspanError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn peak_live_bytes_recorded() {
        let txns: Vec<Graph> = (0..4).map(|_| shapes::chain(4, 0, 1)).collect();
        let out = mine_dfs(&txns, &cfg(4, 4)).unwrap();
        assert!(out.stats.peak_live_bytes > 0);
    }

    #[test]
    fn dedup_hits_recorded() {
        // A "T" (a->b->c plus b->d) is reachable both by extending the
        // 2-chain and by extending the fork; the second route must hit
        // the visited set.
        let t_shape = || {
            let mut g = Graph::new();
            let a = g.add_vertex(tnet_graph::graph::VLabel(0));
            let b = g.add_vertex(tnet_graph::graph::VLabel(0));
            let c = g.add_vertex(tnet_graph::graph::VLabel(0));
            let d = g.add_vertex(tnet_graph::graph::VLabel(0));
            g.add_edge(a, b, tnet_graph::graph::ELabel(1));
            g.add_edge(b, c, tnet_graph::graph::ELabel(1));
            g.add_edge(b, d, tnet_graph::graph::ELabel(1));
            g
        };
        let txns: Vec<Graph> = (0..3).map(|_| t_shape()).collect();
        let out = mine_dfs(&txns, &cfg(3, 3)).unwrap();
        assert!(out.stats.dedup_hits > 0);
        // And the T itself is found once.
        let t_found = out
            .patterns
            .iter()
            .filter(|p| are_isomorphic(&p.graph, &t_shape()))
            .count();
        assert_eq!(t_found, 1);
    }
}

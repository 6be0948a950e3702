//! Incremental mining sessions over a shared frozen transaction
//! universe.
//!
//! The stateless miner answers `mine(graphs) -> patterns` and forgets
//! everything. A [`MineSession`] instead survives across temporal
//! windows of one frozen [`TxnSet`]: it owns the previous window's
//! pattern lattice (per-level iso-keyed TID lists), and on
//! [`MineSession::advance`] re-counts **only** patterns whose candidate
//! TID intersection reaches into the added transaction region — a
//! cached pattern's support over the shared region is carried over
//! verbatim, and retired transactions fall out by restriction. When the
//! window delta exceeds [`CHURN_THRESHOLD`] (or the windows do not
//! overlap, as with tumbling windows), the session falls back to a full
//! re-count, which is simply the stateless miner on the window slice.
//!
//! **Byte-identity invariant:** `advance` returns exactly what
//! [`crate::mine_source`] returns for the same window slice — same
//! patterns, same supports, same TID lists, same order — at any thread
//! count. The incremental path reuses the stateless miner's candidate
//! generation and pruning verbatim and only changes *how* each exact
//! support set is computed, never *what* it is.

use crate::miner::mine_core;
use crate::types::{FsgConfig, FsgError, FsgOutput};
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;
use tnet_graph::canon::IsoClassMap;
use tnet_graph::delta::GraphDelta;
use tnet_graph::frozen::TxnSet;
use tnet_graph::graph::Graph;

/// `advance` abandons the cache and re-counts the window from scratch
/// when `delta.churn()` — `(retired + added) / window size` — exceeds
/// this. Sliding day windows of width 7 / slide 1 sit at ~0.29,
/// tumbling windows at 2.0.
const CHURN_THRESHOLD: f64 = 0.5;

/// Incremental-counting context threaded into the level-wise loop.
/// `cache[edges - 1]` is the **previous window's candidate log**, moved
/// here wholesale: each entry maps a candidate's iso class to its exact
/// support TIDs in previous-window-local coordinates. The overlap
/// restriction and re-basing happen lazily inside [`IncrCtx::lookup`]
/// (drop tids below `shift`, subtract `shift`), so the per-window setup
/// cost is a pointer move instead of rebuilding an iso-keyed map — work
/// is only spent on candidates the new window actually generates. The
/// cache covers every candidate the previous window counted exactly —
/// frequent *and* infrequent — because the expensive candidates are
/// precisely the ones that pass the intersection gates and get
/// searched; an empty restriction is itself exact ("absent from the
/// whole overlap") and still spares the search. `log` collects this
/// window's exactly-counted candidates to become the next window's
/// cache.
pub(crate) struct IncrCtx {
    cache: Vec<IsoClassMap<Vec<u32>>>,
    /// Previous-window-local TID where the overlap begins
    /// (`lo - prev_lo`); cached TIDs below it were retired.
    shift: u32,
    /// First window-local TID of the added region (`prev_hi - lo`).
    pub added_lo: u32,
    /// Patterns whose support was (re)counted against transactions.
    pub patterns_recounted: AtomicUsize,
    /// Cached patterns whose parents' intersection never reached the
    /// added region — their support carried over with zero counting.
    pub recount_skips: AtomicUsize,
    /// Exactly-counted candidates from this run, `log[edges - 1]`
    /// keyed by iso class. Locked only from the sequential per-level
    /// fold, never inside workers.
    log: Mutex<Vec<IsoClassMap<Vec<u32>>>>,
}

impl IncrCtx {
    /// A context with no cached lattice: the run mines exactly like the
    /// stateless miner (embedding propagation stays on) but still logs
    /// counted candidates for the next window.
    fn collect_only() -> IncrCtx {
        IncrCtx {
            cache: Vec::new(),
            shift: 0,
            added_lo: 0,
            patterns_recounted: AtomicUsize::new(0),
            recount_skips: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Whether a previous window's lattice is available. Gates the
    /// cached-support reuse in the miner: no cache means nothing to
    /// look up.
    pub fn has_cache(&self) -> bool {
        !self.cache.is_empty()
    }

    /// The cached support of `g`'s iso class at `edges` edges,
    /// restricted to the overlap and re-based to current-window-local
    /// coordinates. `Some(vec![])` means "cached, absent from the whole
    /// overlap" — still exact; `None` means the previous window never
    /// counted this class exactly.
    pub fn lookup(&self, edges: usize, g: &Graph) -> Option<Vec<u32>> {
        let tids = self.cache.get(edges - 1)?.get(g)?;
        let from = tids.partition_point(|&t| t < self.shift);
        Some(tids[from..].iter().map(|&t| t - self.shift).collect())
    }

    /// Records an exactly-counted candidate (called from the sequential
    /// fold, in deterministic candidate order).
    pub fn log_candidate(&self, edges: usize, g: &Graph, tids: &[u32]) {
        self.log_candidate_owned(edges, g.clone(), tids.to_vec());
    }

    /// As [`IncrCtx::log_candidate`] but takes ownership — the fold
    /// moves infrequent candidates (dropped otherwise) into the log
    /// instead of cloning them.
    pub fn log_candidate_owned(&self, edges: usize, g: Graph, tids: Vec<u32>) {
        let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
        if log.len() < edges {
            log.resize_with(edges, IsoClassMap::new);
        }
        log[edges - 1].insert(g, tids);
    }
}

/// Session counters, folded into the unified metrics namespace under
/// `session.*` / `window.*` (see DESIGN.md §16).
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Windows mined through this session.
    pub windows: usize,
    /// Windows served by delta re-counting.
    pub incremental_windows: usize,
    /// Windows that fell back to a full re-count (first window, no
    /// overlap, or churn above threshold).
    pub full_recounts: usize,
    /// Transactions retired + added across all window advances.
    pub delta_txns: usize,
    /// Packed edges retired + added across all window advances.
    pub delta_edges: usize,
    /// Patterns re-counted against transactions on incremental windows.
    pub patterns_recounted: usize,
    /// Cached patterns whose re-count was skipped entirely (no added
    /// transactions in their candidate intersection).
    pub recount_skips: usize,
}

impl SessionStats {
    /// Folds the counters into a [`tnet_obs::MetricsRegistry`].
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("session.windows", self.windows as u64);
        metrics.add(
            "session.incremental_windows",
            self.incremental_windows as u64,
        );
        metrics.add("session.full_recounts", self.full_recounts as u64);
        metrics.add("session.patterns_recounted", self.patterns_recounted as u64);
        metrics.add("session.recount_skips", self.recount_skips as u64);
        metrics.add("window.delta_txns", self.delta_txns as u64);
        metrics.add("window.delta_edges", self.delta_edges as u64);
    }
}

/// What the session remembers between windows: the last window's range
/// and its candidate log — every exactly-counted candidate's iso class
/// with **window-local** TIDs, per level.
struct PrevWindow {
    lo: usize,
    hi: usize,
    log: Vec<IsoClassMap<Vec<u32>>>,
}

/// A persistent mining session over forward-moving windows of one
/// frozen [`TxnSet`]. See the module docs for the delta re-count rule
/// and the byte-identity invariant.
pub struct MineSession<'a> {
    set: &'a TxnSet,
    cfg: FsgConfig,
    prev: Option<PrevWindow>,
    /// Cumulative counters across all `advance` calls.
    pub stats: SessionStats,
}

impl<'a> MineSession<'a> {
    /// A fresh session over `set`. The first `advance` is always a full
    /// (re)count.
    pub fn new(set: &'a TxnSet, cfg: FsgConfig) -> MineSession<'a> {
        MineSession {
            set,
            cfg,
            prev: None,
            stats: SessionStats::default(),
        }
    }

    /// Advances the session to the window of transactions `[lo, hi)`
    /// and mines it. Windows must move forward (`lo`/`hi` each at least
    /// the previous window's). The returned patterns carry
    /// **window-local** TIDs — byte-identical to
    /// [`crate::mine_source`] over `set.slice(lo, hi)`.
    ///
    /// # Errors
    /// As [`crate::mine_with`].
    pub fn advance(
        &mut self,
        lo: usize,
        hi: usize,
        exec: &tnet_exec::Exec,
    ) -> Result<FsgOutput, FsgError> {
        self.stats.windows += 1;
        let delta = self
            .prev
            .as_ref()
            .map(|p| GraphDelta::between(self.set, (p.lo, p.hi), (lo, hi)));
        if let Some(d) = &delta {
            self.stats.delta_txns += d.retired_txns + d.added_txns;
            self.stats.delta_edges += d.retired_edges + d.added_edges;
        }
        let slice = self.set.slice(lo, hi);
        let incremental = match (&self.prev, &delta) {
            (Some(_), Some(d)) => {
                let (olo, ohi) = d.overlap();
                ohi > olo && d.churn() <= CHURN_THRESHOLD
            }
            _ => false,
        };
        let ctx = if incremental {
            // The previous log is moved — not rebuilt — into the cache;
            // `lookup` restricts to the overlap and re-bases lazily. By
            // induction the logged TIDs are each candidate's exact
            // support over the shared region.
            let prev = self.prev.take().unwrap();
            let (_, ohi) = delta.unwrap().overlap();
            IncrCtx {
                cache: prev.log,
                shift: (lo - prev.lo) as u32,
                added_lo: (ohi - lo) as u32,
                patterns_recounted: AtomicUsize::new(0),
                recount_skips: AtomicUsize::new(0),
                log: Mutex::new(Vec::new()),
            }
        } else {
            IncrCtx::collect_only()
        };
        let out = mine_core(&slice, &self.cfg, exec, Some(&ctx))?;
        if incremental {
            self.stats.incremental_windows += 1;
            self.stats.patterns_recounted += ctx.patterns_recounted.into_inner();
            self.stats.recount_skips += ctx.recount_skips.into_inner();
        } else {
            self.stats.full_recounts += 1;
        }
        self.prev = Some(PrevWindow {
            lo,
            hi,
            log: ctx.log.into_inner().unwrap_or_else(|p| p.into_inner()),
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Support;
    use crate::{mine_source, FsgConfig};
    use tnet_exec::Exec;
    use tnet_graph::generate::shapes;
    use tnet_graph::graph::{ELabel, Graph};

    fn universe() -> Vec<Graph> {
        // A rolling mix: hubs, chains, cycles with drifting sizes so
        // consecutive windows share most but not all patterns.
        let mut txns = Vec::new();
        for i in 0..30 {
            let mut g = shapes::hub_and_spoke(2 + i % 3, 0, 1);
            if i % 4 == 0 {
                let vs: Vec<_> = g.vertices().collect();
                g.add_edge(vs[0], vs[0], ELabel(9));
            }
            txns.push(g);
            txns.push(shapes::chain(2 + i % 4, 0, 1));
            if i % 5 == 0 {
                txns.push(shapes::cycle(3 + i % 2, 0, 1));
            }
        }
        txns
    }

    fn cfg() -> FsgConfig {
        FsgConfig::default()
            .with_support(Support::Count(3))
            .with_max_edges(4)
    }

    fn assert_identical(a: &FsgOutput, b: &FsgOutput) {
        assert_eq!(a.patterns.len(), b.patterns.len());
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.support, y.support);
            assert_eq!(x.tids, y.tids);
            assert!(tnet_graph::iso::are_isomorphic(&x.graph, &y.graph));
        }
    }

    #[test]
    fn sliding_advance_matches_full_mining() {
        let txns = universe();
        let set = TxnSet::freeze(&txns);
        let exec = Exec::sequential();
        let mut session = MineSession::new(&set, cfg());
        let n = txns.len();
        let (width, slide) = (20usize, 5usize);
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + width).min(n);
            let inc = session.advance(lo, hi, &exec).unwrap();
            let full = mine_source(&set.slice(lo, hi), &cfg(), &exec).unwrap();
            assert_identical(&inc, &full);
            lo += slide;
        }
        assert!(session.stats.incremental_windows > 0);
        assert!(session.stats.recount_skips + session.stats.patterns_recounted > 0);
    }

    #[test]
    fn tumbling_windows_full_recount() {
        let txns = universe();
        let set = TxnSet::freeze(&txns);
        let exec = Exec::sequential();
        let mut session = MineSession::new(&set, cfg());
        for w in 0..3 {
            let (lo, hi) = (w * 25, (w * 25 + 25).min(txns.len()));
            let inc = session.advance(lo, hi, &exec).unwrap();
            let full = mine_source(&set.slice(lo, hi), &cfg(), &exec).unwrap();
            assert_identical(&inc, &full);
        }
        assert_eq!(session.stats.incremental_windows, 0);
        assert_eq!(session.stats.full_recounts, 3);
    }

    #[test]
    fn high_churn_forces_fallback() {
        let txns = universe();
        let set = TxnSet::freeze(&txns);
        let exec = Exec::sequential();
        let mut session = MineSession::new(&set, cfg());
        session.advance(0, 20, &exec).unwrap();
        // 8 retired + 8 added over a 20-transaction window: churn 0.8
        // exceeds the threshold although the windows still overlap.
        let out = session.advance(8, 28, &exec).unwrap();
        assert_identical(
            &out,
            &mine_source(&set.slice(8, 28), &cfg(), &exec).unwrap(),
        );
        assert_eq!(session.stats.incremental_windows, 0);
        assert_eq!(session.stats.full_recounts, 2);
        // At exactly the threshold (5 + 5 over 20) the delta path runs.
        session.advance(13, 33, &exec).unwrap();
        assert_eq!(session.stats.incremental_windows, 1);
    }

    #[test]
    fn counters_accumulate() {
        let txns = universe();
        let set = TxnSet::freeze(&txns);
        let exec = Exec::sequential();
        let mut session = MineSession::new(&set, cfg());
        session.advance(0, 20, &exec).unwrap();
        session.advance(2, 22, &exec).unwrap();
        assert_eq!(session.stats.windows, 2);
        assert_eq!(session.stats.incremental_windows, 1);
        assert!(session.stats.delta_txns > 0);
        assert!(session.stats.delta_edges > 0);
    }
}

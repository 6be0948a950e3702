//! Embedding-list bookkeeping for propagated support counting.
//!
//! Used by FSG's level-wise walk (and so by the neighborhood and
//! temporal miners that run it): instead of answering "does this
//! pattern occur in this transaction?" with a scratch VF2 search per
//! (pattern, transaction) pair, each pair keeps the list of the
//! pattern's embeddings in that transaction and grows it one edge at a
//! time alongside the pattern itself. A child pattern is its parent
//! plus one derived edge ([`tnet_graph::iso::derive_extension`]), so
//! the child's occurrences are exactly the one-edge extensions of the
//! parent's — counting support becomes an incremental extension
//! instead of a search.
//!
//! Lists hold **unpruned** embeddings ([`Matcher::find_unpruned`]'s
//! enumeration): twin-leaf symmetry breaking would drop occurrences that
//! a child extension needs as a starting point.
//!
//! The store is structure-of-arrays: all occurrences of one (pattern,
//! transaction) pair live in a single row-major `Vec<VertexId>` (row =
//! one flat assignment, stride = pattern vertex count), so
//! [`grow_store`]'s hot loop streams one contiguous buffer and appends
//! children in place via
//! [`tnet_graph::iso::extend_embedding_row`] — no per-occurrence heap
//! vector, no pointer chase per parent.
//!
//! [`Matcher::find_unpruned`]: tnet_graph::iso::Matcher::find_unpruned

use crate::types::FrequentPattern;
use tnet_graph::graph::VertexId;
use tnet_graph::iso::{child_stride, extend_embedding_row, Extension};
use tnet_graph::view::{GraphView, TxnSource};

/// Per-(pattern, transaction) embedding list, stored row-major in one
/// flat buffer (structure of arrays).
pub struct EmbStore {
    /// Row width: one slot per pattern vertex. May be 0 only while the
    /// store is empty (placeholder stores on the unverified path).
    stride: u32,
    /// Row-major flat assignments: row `i` is
    /// `flat[i * stride..(i + 1) * stride]`, in deterministic enumeration
    /// order (at most the effective cap rows).
    flat: Vec<VertexId>,
    /// Whether the store holds the complete list. An over-cap list is
    /// truncated to a [`SEED_CAP`]-bounded prefix and marked inexact:
    /// extending the kept seeds still proves support (a witness is a
    /// witness), but an empty extension result proves nothing and must be
    /// re-verified by a scratch VF2 existence check. (Re-anchoring
    /// overflowing pairs by re-enumerating up to cap+1 embeddings was
    /// measured 2-3x slower than the legacy scratch path on hub-heavy
    /// transportation splits; truncated seeds keep the witness fast path
    /// without that cost, and the scratch check bounds the downside at
    /// the legacy cost.)
    pub exact: bool,
}

impl EmbStore {
    /// An empty store with the given row width.
    pub fn new(stride: usize, exact: bool) -> EmbStore {
        EmbStore {
            stride: stride as u32,
            flat: Vec::new(),
            exact,
        }
    }

    /// Wraps a row-major flat buffer (`flat.len()` must be a multiple of
    /// `stride`).
    pub fn from_rows(stride: usize, flat: Vec<VertexId>, exact: bool) -> EmbStore {
        debug_assert!(stride > 0 || flat.is_empty());
        debug_assert!(stride == 0 || flat.len().is_multiple_of(stride));
        EmbStore {
            stride: stride as u32,
            flat,
            exact,
        }
    }

    /// Row width (pattern vertex count).
    pub fn stride(&self) -> usize {
        self.stride as usize
    }

    /// Number of stored occurrences.
    pub fn len(&self) -> usize {
        if self.stride == 0 {
            0
        } else {
            self.flat.len() / self.stride as usize
        }
    }

    /// Appends one occurrence (`row.len()` must equal the stride).
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert_eq!(row.len(), self.stride as usize);
        self.flat.extend_from_slice(row);
    }

    /// Iterator over occurrences as flat assignment slices.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        self.flat.chunks_exact(self.stride.max(1) as usize)
    }

    /// Bytes held by the flat buffer — the miners' "SoA bytes" counter.
    pub fn byte_len(&self) -> usize {
        self.flat.len() * std::mem::size_of::<VertexId>()
    }

    /// Keeps only the first `n` occurrences.
    fn truncate_rows(&mut self, n: usize) {
        self.flat.truncate(n * self.stride as usize);
    }
}

/// Seed budget for **inexact** embedding lists. Once a list has spilled,
/// its embeddings only serve as extension witnesses (support proofs) for
/// descendants — completeness is gone either way, and a bounded prefix of
/// seeds witnesses nearly as often as a full cap's worth while costing a
/// fraction of the extension work. Misses fall through to the scratch
/// existence check like any other inexact "no".
pub const SEED_CAP: usize = 256;

/// Test-only override of [`SEED_CAP`] (0 = use the default). A tiny seed
/// budget makes spills and the `Grown::Unverified` → scratch
/// re-verification path reachable on small fixtures, which the
/// differential tests rely on. Process-global; only tests may set it.
static SEED_CAP_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The seed budget in effect: [`SEED_CAP`] unless a test installed an
/// override via [`set_seed_cap_for_tests`].
pub fn seed_cap() -> usize {
    match SEED_CAP_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => SEED_CAP,
        n => n,
    }
}

/// Installs (`n > 0`) or clears (`n = 0`) a process-global seed-cap
/// override. **Test-only**: never call from production code, and keep
/// tests that use it in their own process or restore 0 before
/// asserting on unrelated runs.
#[doc(hidden)]
pub fn set_seed_cap_for_tests(n: usize) {
    SEED_CAP_OVERRIDE.store(n, std::sync::atomic::Ordering::Relaxed);
}

/// Effective exact-list cap for one transaction: a list no longer than
/// the transaction's edge count costs no more memory than the transaction
/// itself and no more time than the scratch search's own edge scan, so
/// large transactions (where scratch VF2 is at its most expensive) earn a
/// proportionally larger exactness budget.
pub fn txn_cap<G: GraphView>(cap: usize, txn: &G) -> usize {
    cap.max(txn.edge_count())
}

/// Outcome of growing one (pattern, transaction) embedding list by one
/// derived edge.
pub enum Grown {
    /// No extension exists and the parent list was exact: the child
    /// pattern provably does not occur in the transaction.
    Absent,
    /// No extension was found, but the parent list was a truncated seed
    /// prefix — an unverified "no". The caller must settle it with a
    /// scratch existence check (and, on success, hand descendants an
    /// empty inexact store so they keep verifying).
    Unverified,
    /// At least one extension was found: the child occurs. `store` is the
    /// child's embedding list, or `None` when the caller asked for a
    /// witness only.
    Witnessed { store: Option<EmbStore> },
}

/// Grows `store` (the parent pattern's embeddings in `txn`) by the one
/// edge described by `ext`. With `witness_only` the search stops at the
/// first extension and returns no child store — the terminal-depth case
/// where no descendant will consume it. `extended` and `spilled` count
/// parent embeddings visited and child lists truncated, for stats.
pub fn grow_store<G: GraphView>(
    txn: &G,
    store: &EmbStore,
    ext: &Extension,
    cap: usize,
    witness_only: bool,
    extended: &mut usize,
    spilled: &mut usize,
) -> Grown {
    let cap = txn_cap(cap, txn);
    // Exact lists must be enumerated completely (up to the overflow probe
    // at cap + 1); inexact lists only feed the seed budget. Saturating:
    // with `cap == usize::MAX` a `cap + 1` would wrap to 0 in release
    // builds, break after the first parent, and (without the `complete`
    // guard below) mark a partial enumeration exact — an undercount.
    let stop_at = if store.exact {
        cap.saturating_add(1)
    } else {
        seed_cap().min(cap)
    };
    let cs = child_stride(store.stride(), ext);
    let mut flat: Vec<VertexId> = Vec::new();
    // Exactness audit: `extend_embedding_row` appends *all* of one
    // parent's children at once, so a break can overshoot `stop_at` but
    // never stops mid-parent. For an exact parent the break therefore
    // implies a row count > cap, which already routes to the spill branch
    // — but that proof leans on the `stop_at` arithmetic above.
    // `complete` states the invariant directly: a child list is exact
    // only if every parent occurrence was actually visited.
    let mut complete = true;
    for row in store.rows() {
        *extended += 1;
        extend_embedding_row(txn, row, ext, &mut flat);
        if (witness_only && !flat.is_empty()) || flat.len() / cs.max(1) >= stop_at {
            complete = false;
            break;
        }
    }
    if flat.is_empty() {
        return if store.exact {
            Grown::Absent
        } else {
            Grown::Unverified
        };
    }
    if witness_only {
        return Grown::Witnessed { store: None };
    }
    let child = if store.exact && complete && flat.len() / cs <= cap {
        EmbStore::from_rows(cs, flat, true)
    } else {
        if store.exact {
            *spilled += 1;
        }
        let mut child = EmbStore::from_rows(cs, flat, false);
        child.truncate_rows(seed_cap().min(cap));
        child
    };
    Grown::Witnessed { store: Some(child) }
}

/// Enumerates all embeddings of a frequent single-edge pattern in each of
/// its supporting transactions, truncating lists that overflow the
/// effective cap. The returned stores align with `p.tids`.
pub fn level1_store<T: TxnSource + ?Sized>(
    p: &FrequentPattern,
    transactions: &T,
    cap: usize,
    spilled: &mut usize,
) -> Vec<EmbStore> {
    let e = p.graph.edges().next().expect("level-1 pattern has an edge");
    let (ps, pd, el) = p.graph.edge(e);
    let is_loop = ps == pd;
    let sl = p.graph.vertex_label(ps);
    let dl = p.graph.vertex_label(pd);
    let stride = if is_loop { 1 } else { 2 };
    p.tids
        .iter()
        .map(|&tid| {
            let t = transactions.txn(tid as usize);
            let cap = txn_cap(cap, &t);
            let mut store = EmbStore::new(stride, true);
            for te in t.edges() {
                let (ts, td, tl) = t.edge(te);
                if tl != el {
                    continue;
                }
                if is_loop {
                    if ts != td || t.vertex_label(ts) != sl {
                        continue;
                    }
                    store.push_row(&[ts]);
                } else {
                    if ts == td || t.vertex_label(ts) != sl || t.vertex_label(td) != dl {
                        continue;
                    }
                    store.push_row(&[ts, td]);
                }
                // Transactions are simple graphs (see [`crate::mine`]),
                // so each edge yields a distinct vertex mapping — no
                // dedup needed.
                if store.len() > cap {
                    break;
                }
            }
            if store.len() > cap {
                *spilled += 1;
                store.truncate_rows(seed_cap().min(cap));
                store.exact = false;
            }
            store
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
    use tnet_graph::iso::Extension;

    /// Hub transaction: one center (label 0) with `spokes` out-edges
    /// (label 7) to distinct label-1 vertices. Every embedding of the
    /// single-edge pattern `0 -[7]-> 1` extends to `spokes - 1` children
    /// at once under a `NewDst` extension — the multi-append shape the
    /// `grow_store` break interacts with.
    fn hub_txn(spokes: usize) -> (Graph, EmbStore) {
        let mut g = Graph::new();
        let center = g.add_vertex(VLabel(0));
        let mut store = EmbStore::new(2, true);
        for _ in 0..spokes {
            let s = g.add_vertex(VLabel(1));
            g.add_edge(center, s, ELabel(7));
            store.push_row(&[center, s]);
        }
        (g, store)
    }

    const EXT: Extension = Extension::NewDst {
        src: VertexId(0),
        elabel: ELabel(7),
        vlabel: VLabel(1),
    };

    #[test]
    fn multi_append_overshoot_spills_instead_of_marking_exact() {
        let (txn, parent) = hub_txn(5);
        let (mut ext_n, mut spills) = (0, 0);
        // Effective cap = max(2, edge_count) = 5; first parent appends 4
        // children, second overshoots stop_at = 6 mid-list. The child
        // must spill — later parents were never visited.
        match grow_store(&txn, &parent, &EXT, 2, false, &mut ext_n, &mut spills) {
            Grown::Witnessed { store: Some(child) } => {
                assert!(!child.exact, "partial enumeration must not be exact");
                assert!(child.len() <= 5);
                assert_eq!(child.stride(), 3, "NewDst appends one slot");
            }
            _ => panic!("extensions exist; expected a witnessed child store"),
        }
        assert_eq!(spills, 1);
        assert!(ext_n < 5, "break must stop visiting parents early");
    }

    #[test]
    fn unbounded_cap_enumerates_fully_and_stays_exact() {
        // cap = usize::MAX: the overflow probe `cap + 1` used to wrap to
        // 0 in release builds (and panic under overflow checks), break
        // after the first parent, and mark the partial child exact.
        let (txn, parent) = hub_txn(4);
        let (mut ext_n, mut spills) = (0, 0);
        match grow_store(
            &txn,
            &parent,
            &EXT,
            usize::MAX,
            false,
            &mut ext_n,
            &mut spills,
        ) {
            Grown::Witnessed { store: Some(child) } => {
                assert!(child.exact);
                assert_eq!(
                    child.len(),
                    4 * 3,
                    "every parent contributes spokes - 1 children"
                );
            }
            _ => panic!("expected a witnessed child store"),
        }
        assert_eq!(ext_n, 4, "all parents visited");
        assert_eq!(spills, 0);
    }

    #[test]
    fn exact_parent_within_cap_keeps_all_children_exact() {
        let (txn, parent) = hub_txn(3);
        let (mut ext_n, mut spills) = (0, 0);
        // 3 parents x 2 children = 6 total; effective cap = max(6, 3).
        match grow_store(&txn, &parent, &EXT, 6, false, &mut ext_n, &mut spills) {
            Grown::Witnessed { store: Some(child) } => {
                assert!(child.exact, "complete enumeration within cap is exact");
                assert_eq!(child.len(), 6);
            }
            _ => panic!("expected a witnessed child store"),
        }
        assert_eq!(ext_n, 3);
        assert_eq!(spills, 0);
    }

    #[test]
    fn inexact_parent_with_no_extension_is_unverified() {
        let (txn, mut parent) = hub_txn(2);
        parent.truncate_rows(1);
        parent.exact = false;
        let (mut ext_n, mut spills) = (0, 0);
        // Ask for an extension label absent from the transaction.
        let ext = Extension::NewDst {
            src: VertexId(0),
            elabel: ELabel(99),
            vlabel: VLabel(1),
        };
        match grow_store(&txn, &parent, &ext, 8, false, &mut ext_n, &mut spills) {
            Grown::Unverified => {}
            _ => panic!("truncated parent with no hit must stay unverified"),
        }
    }

    #[test]
    fn soa_rows_round_trip() {
        let (_, store) = hub_txn(3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.stride(), 2);
        assert_eq!(store.byte_len(), 3 * 2 * 4);
        let rows: Vec<&[VertexId]> = store.rows().collect();
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], VertexId(0), "hub center first slot");
            assert_eq!(row[1], VertexId(i as u32 + 1));
        }
    }
}

//! The level-wise (Apriori) frequent-subgraph miner.
//!
//! Mirrors FSG's structure: find frequent single edges, then repeatedly
//! generate (k+1)-edge candidates from frequent k-edge patterns, prune by
//! downward closure, and count support by subgraph isomorphism against
//! the transactions. "A subgraph g occurs in a graph t if g is isomorphic
//! to t' ⊆ t, where isomorphism is defined to include matching the labels
//! as well as the vertex/edge structure."
//!
//! Differences from the original implementation (see DESIGN.md):
//! candidate generation is single-edge extension (complete for connected
//! patterns) instead of core joining, and pattern identity is a canonical
//! code built by colour refinement and individualization
//! ([`tnet_graph::canon::CanonicalCode`]) rather than FSG's own labelling.

use crate::embed::{grow_store, level1_store, seed_cap, txn_cap, EmbStore, Grown};
use crate::extend::{closure_sub_codes, extend_pattern, EdgeVocab, PairFilter};
use crate::tidset::{self, TidBitset};
use crate::types::{FrequentPattern, FsgConfig, FsgError, FsgOutput, MiningStats};
use tnet_exec::Exec;
use tnet_graph::canon::IsoClassMap;
use tnet_graph::frozen::TxnSet;
use tnet_graph::graph::{ELabel, Graph, VLabel};
use tnet_graph::hash::{FxHashMap, FxHashSet};
use tnet_graph::iso::{derive_extension, Extension, Find, Matcher};
use tnet_graph::view::{GraphView, TxnSource};

/// Per-candidate memory estimate: arena storage for a small pattern graph
/// (each vertex carries two adjacency `Vec`s plus their heap blocks),
/// iso-class map overhead, and a TID vector. Calibrated against observed
/// RSS of large candidate sets; the budget models the paper's 1 GB Sparc,
/// not this host.
fn candidate_bytes(vertices: usize, edges: usize, tids: usize) -> usize {
    256 + vertices * 110 + edges * 48 + tids * 4
}

/// Per-candidate counter deltas, folded into [`MiningStats`] in candidate
/// order.
#[derive(Default)]
struct VerdictStats {
    iso_class_checks: usize,
    iso_tests: usize,
    iso_nodes: u64,
    iso_nodes_max: u64,
    embeddings_extended: usize,
    embeddings_spilled: usize,
    tid_intersection_skips: usize,
    bitset_intersections: usize,
}

impl VerdictStats {
    /// Counts one scratch VF2 search that visited `nodes` search nodes.
    fn record_iso(&mut self, nodes: u64) {
        self.iso_tests += 1;
        self.iso_nodes += nodes;
        self.iso_nodes_max = self.iso_nodes_max.max(nodes);
    }
}

/// Per-candidate verdict from the parallel evaluation stage. Folding
/// these back into `stats`/`next` in candidate order keeps the output
/// byte-identical to the sequential path.
enum Verdict {
    /// Failed the downward-closure check (after passing the TID
    /// intersection gate, whose counter deltas it carries).
    Pruned(VerdictStats),
    /// Survived closure; support counted by embedding propagation (or
    /// scratch VF2 when `embedding_cap == 0`). `stores[i]` belongs to
    /// `tids[i]` and is empty in scratch mode.
    Counted {
        tids: Vec<u32>,
        stores: Vec<EmbStore>,
        stats: VerdictStats,
    },
}

/// Ascending-sorted TID list intersection.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Narrows the ascending TID list `start` to the TIDs that every parent
/// in `others` (indices into `frequent`) also holds. When each of
/// `others` has a bitset and `start_words` yields `start` as bitset
/// words, the sets are ANDed word by word (branchless; one
/// `bitset_intersections` per parent); otherwise the sorted lists are
/// merged. Both paths emit the same ascending list.
fn narrow_tids(
    start: &[u32],
    start_words: impl FnOnce() -> Option<Vec<u64>>,
    others: &[usize],
    frequent: &[FrequentPattern],
    bitsets: &[Option<TidBitset>],
    vstats: &mut VerdictStats,
) -> Vec<u32> {
    let dense = !others.is_empty() && others.iter().all(|&i| bitsets[i].is_some());
    if let Some(mut acc) = dense.then(start_words).flatten() {
        for &pi in others {
            let bits = bitsets[pi].as_ref().expect("every parent is dense");
            tidset::and_words(&mut acc, bits.words());
            vstats.bitset_intersections += 1;
        }
        return tidset::materialize(&acc);
    }
    let Some((&first, rest)) = others.split_first() else {
        return start.to_vec();
    };
    let mut inter = intersect_sorted(start, &frequent[first].tids);
    for &pi in rest {
        if inter.is_empty() {
            break;
        }
        inter = intersect_sorted(&inter, &frequent[pi].tids);
    }
    inter
}

/// Mines all frequent connected subgraphs of `transactions` on the
/// current thread. Equivalent to [`mine_with`] on a sequential pool.
///
/// Transactions must be simple graphs (no parallel `(src, dst, label)`
/// triples) — run [`Graph::dedup_edges`] first if needed; this matches
/// the paper's preprocessing ("FSG operates on graphs, not multigraphs").
///
/// # Errors
/// [`FsgError::MemoryBudgetExceeded`] when a candidate level outgrows the
/// configured budget.
pub fn mine(transactions: &[Graph], cfg: &FsgConfig) -> Result<FsgOutput, FsgError> {
    mine_with(transactions, cfg, &Exec::sequential())
}

/// Mines all frequent connected subgraphs of `transactions`, evaluating
/// each level's candidates (closure check + VF2 support counting) across
/// `exec`'s workers.
///
/// Freezes the transactions into a [`TxnSet`] (contiguous CSR arenas with
/// label-sorted adjacency) before mining — support counting then
/// binary-searches candidate edges instead of scanning adjacency lists.
/// The frozen snapshot preserves the builder's iteration order, so the
/// output is byte-identical to [`mine_source`] over the arena slice and
/// to itself at any thread count.
///
/// # Errors
/// - [`FsgError::MemoryBudgetExceeded`] when a candidate level outgrows
///   the configured budget. The handle's [`tnet_exec::CancelToken`] is
///   cancelled first, so siblings sharing the token stop promptly.
/// - [`FsgError::Cancelled`] when `exec` (or an ancestor handle) is
///   cancelled externally mid-run.
pub fn mine_with(
    transactions: &[Graph],
    cfg: &FsgConfig,
    exec: &Exec,
) -> Result<FsgOutput, FsgError> {
    let frozen = TxnSet::freeze(transactions);
    mine_source(&frozen, cfg, exec)
}

/// The representation-generic miner core behind [`mine_with`] (frozen
/// [`TxnSet`]). Passing the arena slice (`&txns[..]`) traverses the
/// mutable representation directly — the frozen-vs-arena differential
/// and benchmark use it as the oracle. Candidate generation
/// and result folding stay sequential and in candidate order, and every
/// [`TxnSource`] yields transactions whose iteration order matches the
/// builder's, so the output is identical across sources and thread
/// counts.
pub fn mine_source<T: TxnSource + ?Sized>(
    transactions: &T,
    cfg: &FsgConfig,
    exec: &Exec,
) -> Result<FsgOutput, FsgError> {
    if exec.is_cancelled() {
        return Err(FsgError::Cancelled);
    }
    // One candidate per chunk: candidate verification cost is wildly
    // uneven (a pruned candidate is a TID merge; a verified one is a VF2
    // sweep), so the finest grain balances best and each worker's TID
    // scan stays resident in L2.
    let exec = &exec.with_chunk_items(1);
    // Phase timers live on the sequential control path only (around the
    // parallel regions, never inside worker closures), which keeps the
    // span tree's registration order — and thus `--trace` output —
    // deterministic at any thread count.
    let span_total = exec.span().time("fsg");
    let span = span_total.span().clone();
    let min_support = cfg.min_support.resolve(transactions.txn_count());
    let mut stats = MiningStats::default();
    let mut all_frequent: Vec<FrequentPattern> = Vec::new();
    let level1_timer = span.time("level1");

    // Per-transaction edge-label histograms: a candidate needing k edges
    // of label l cannot occur in a transaction with fewer — an O(labels)
    // rejection that skips most of the expensive negative VF2 searches
    // on uniformly-vertex-labeled transportation graphs.
    let label_counts: Vec<FxHashMap<u32, usize>> = (0..transactions.txn_count())
        .map(|i| {
            let t = transactions.txn(i);
            let mut h: FxHashMap<u32, usize> = FxHashMap::default();
            for e in t.edges() {
                *h.entry(t.edge_label(e).0).or_insert(0) += 1;
            }
            h
        })
        .collect();

    // ---- Level 1: single-edge patterns --------------------------------
    // Keyed directly by (src label, edge label, dst label, is_loop);
    // cheaper than iso-class maps and exactly equivalent for one edge.
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
    stats.candidates_per_level.push(level1.len());
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut vocab: Vec<EdgeVocab> = Vec::new();
    for ((sl, el, dl, is_loop), tids) in level1 {
        if tids.len() < min_support {
            continue;
        }
        let mut g = Graph::new();
        let s = g.add_vertex(VLabel(sl));
        if is_loop {
            g.add_edge(s, s, ELabel(el));
        } else {
            let d = g.add_vertex(VLabel(dl));
            g.add_edge(s, d, ELabel(el));
            vocab.push(EdgeVocab {
                src: VLabel(sl),
                label: ELabel(el),
                dst: VLabel(dl),
            });
        }
        let mut tids = tids;
        tids.sort_unstable();
        frequent.push(FrequentPattern {
            graph: g,
            support: tids.len(),
            tids,
        });
    }
    // Loop vocabulary entries also drive extensions (self-loop labels).
    for p in &frequent {
        let e = p.graph.edges().next().unwrap();
        let (s, d, _) = p.graph.edge(e);
        if s == d {
            vocab.push(EdgeVocab {
                src: p.graph.vertex_label(s),
                label: p.graph.edge_label(e),
                dst: p.graph.vertex_label(d),
            });
        }
    }
    vocab.sort_by_key(|v| (v.src, v.label, v.dst));
    vocab.dedup();
    stats.frequent_per_level.push(frequent.len());
    drop(level1_timer);

    // Embedding stores for the current level, parallel to `frequent`
    // (`stores[i][k]` covers `frequent[i].tids[k]`). Only the frontier
    // level is retained; finished levels keep just their TID lists.
    let cap = cfg.embedding_cap;
    let mut stores: Vec<Vec<EmbStore>> = if cap > 0 && cfg.max_edges > 1 {
        let _t = span.time("embed_seed");
        frequent
            .iter()
            .map(|p| level1_store(p, transactions, cap, &mut stats.embeddings_spilled))
            .collect()
    } else {
        Vec::new()
    };
    stats.soa_bytes = stores.iter().flatten().map(|s| s.byte_len()).sum();
    // Pre-register the per-level phases so they render in pipeline order
    // even if a future refactor times them from racing contexts.
    span.child("candidate_gen");
    span.child("support_count");

    // ---- Levels 2..max ---------------------------------------------------
    let mut level = 1usize;
    let mut pair_filter: Option<PairFilter> = None;
    while !frequent.is_empty() && level < cfg.max_edges {
        level += 1;
        if level == 3 {
            // Every adjacent edge pair in a candidate is a connected
            // 2-edge subgraph, so the level-2 frequent set bounds which
            // extensions can survive closure — encode it once and filter
            // at generation time, before any clone/hash/closure work.
            pair_filter = Some(PairFilter::build(frequent.iter().map(|p| &p.graph)));
        }
        // A deadline or sibling abort may land between levels; checking
        // here keeps long multi-level mines responsive to both.
        if exec.is_cancelled() {
            return Err(FsgError::Cancelled);
        }
        tnet_exec::failpoint::hit("fsg::candidate_gen").map_err(FsgError::Fault)?;
        let gen_timer = span.time("candidate_gen");
        // Candidate generation with the running memory estimate.
        let mut candidates: IsoClassMap<Vec<usize>> = IsoClassMap::new();
        let mut estimated = 0usize;
        for (idx, p) in frequent.iter().enumerate() {
            stats.iso_class_checks +=
                extend_pattern(&p.graph, &vocab, idx, pair_filter.as_ref(), &mut candidates);
            estimated = candidates.len() * candidate_bytes(level + 1, level, min_support.max(16));
            if let Some(budget) = cfg.memory_budget {
                if estimated > budget {
                    stats.peak_candidate_bytes = stats.peak_candidate_bytes.max(estimated);
                    all_frequent.extend(frequent);
                    finalize(&mut all_frequent);
                    // Signal any work sharing this token (sibling
                    // repetitions, report sections) to stop: the budget
                    // models one machine's memory, not one call's.
                    exec.cancel();
                    stats.record_into(exec.metrics());
                    return Err(FsgError::MemoryBudgetExceeded {
                        level,
                        estimated_bytes: estimated,
                        budget,
                        partial_stats: Box::new(stats),
                    });
                }
            }
        }
        stats.peak_candidate_bytes = stats.peak_candidate_bytes.max(estimated);
        stats.candidates_per_level.push(candidates.len());
        drop(gen_timer);
        let support_timer = span.time("support_count");

        // Downward closure + support counting.
        // A "frequent index" for closure checks on the previous level.
        let mut prev_index: IsoClassMap<usize> = IsoClassMap::new();
        for (i, p) in frequent.iter().enumerate() {
            prev_index.insert(p.graph.clone(), i);
        }
        stats.iso_class_checks += frequent.len();
        // Bitset TID lists for parents dense enough to cross over (see
        // `tidset::use_bitset`): the all-parents intersection then ANDs
        // words instead of merging sorted lists. Sparse parents keep
        // `None` and their candidates fall back to the sorted path.
        let txn_count = transactions.txn_count();
        let bitsets: Vec<Option<TidBitset>> = frequent
            .iter()
            .map(|p| {
                tidset::use_bitset(p.tids.len(), txn_count)
                    .then(|| TidBitset::from_sorted(&p.tids, txn_count))
            })
            .collect();
        // Evaluate candidates in parallel: each verdict is a pure
        // function of (candidate, previous level, transactions), and the
        // fold below walks verdicts in candidate order — the costly VF2
        // searches fan out, the bookkeeping stays deterministic.
        let cand_list: Vec<(Graph, Vec<usize>)> = candidates.into_iter_pairs().collect();
        let last_level = level == cfg.max_edges;
        let verdicts = exec
            .try_par_map(&cand_list, |(candidate, parents)| {
                let mut vstats = VerdictStats::default();
                // Downward closure bounds the supporting set by *every*
                // parent's TID list, not just the smallest one's:
                // intersect them all before touching any transaction.
                let mut distinct: Vec<usize> = parents.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let min_parent_len = distinct
                    .iter()
                    .map(|&i| frequent[i].tids.len())
                    .min()
                    .expect("candidate without parents");
                let first = distinct[0];
                let inter = narrow_tids(
                    &frequent[first].tids,
                    || bitsets[first].as_ref().map(|b| b.words().to_vec()),
                    &distinct[1..],
                    &frequent,
                    &bitsets,
                    &mut vstats,
                );
                vstats.tid_intersection_skips = min_parent_len - inter.len();
                // The intersection bounds support from above. When it is
                // already below threshold the candidate cannot be
                // frequent, so neither the closure canonicalizations nor
                // any per-transaction work can change the outcome — this
                // cheap word-AND test retires the bulk of the generated
                // candidates on dense workloads.
                if inter.len() < min_support {
                    return Verdict::Counted {
                        tids: Vec::new(),
                        stores: Vec::new(),
                        stats: vstats,
                    };
                }
                // Closure: every connected k-edge sub-pattern must be
                // frequent (deleting the appended edge reproduces the
                // generating parent, which already is). Checked after the
                // intersection gate: each sub-pattern lookup costs a
                // canonical form, the intersection costs a few word ANDs.
                // The lookups also recover each sub-pattern's frequent
                // index, so the supporting set can be narrowed further
                // below: a transaction missing *any* sub-pattern cannot
                // contain the candidate.
                let mut closure_parents: Vec<usize> = Vec::new();
                let closed = closure_sub_codes(candidate, |code| {
                    vstats.iso_class_checks += 1;
                    match prev_index.get_by_code(code) {
                        None => false,
                        Some(&pi) => {
                            closure_parents.push(pi);
                            true
                        }
                    }
                });
                if !closed {
                    return Verdict::Pruned(vstats);
                }
                // Refine the supporting set with the closure parents the
                // generation step didn't know about. Re-gating afterwards
                // retires candidates whose sub-patterns never co-occur
                // often enough — before any per-transaction search runs.
                closure_parents.retain(|pi| !distinct.contains(pi));
                closure_parents.sort_unstable();
                closure_parents.dedup();
                let inter = if closure_parents.is_empty() {
                    inter
                } else {
                    narrow_tids(
                        &inter,
                        || Some(TidBitset::from_sorted(&inter, txn_count).words().to_vec()),
                        &closure_parents,
                        &frequent,
                        &bitsets,
                        &mut vstats,
                    )
                };
                vstats.tid_intersection_skips = min_parent_len - inter.len();
                if inter.len() < min_support {
                    return Verdict::Counted {
                        tids: Vec::new(),
                        stores: Vec::new(),
                        stats: vstats,
                    };
                }
                let mut tids: Vec<u32> = Vec::new();
                let mut new_stores: Vec<EmbStore> = Vec::new();

                // Scratch-search machinery (search plan + edge-label
                // prefilter) is built lazily: with propagation on, most
                // candidates are settled entirely by embedding extension
                // and never need it.
                let build_scratch = || {
                    let mut need: FxHashMap<u32, usize> = FxHashMap::default();
                    for e in candidate.edges() {
                        *need.entry(candidate.edge_label(e).0).or_insert(0) += 1;
                    }
                    (Matcher::new(candidate), need)
                };
                if cap == 0 {
                    // Propagation disabled: scratch VF2 per transaction.
                    let (matcher, need) = build_scratch();
                    for &tid in &inter {
                        let counts = &label_counts[tid as usize];
                        if need
                            .iter()
                            .any(|(l, &k)| counts.get(l).copied().unwrap_or(0) < k)
                        {
                            continue;
                        }
                        let mut nodes = 0;
                        if matcher.matches_counting(&transactions.txn(tid as usize), &mut nodes) {
                            tids.push(tid);
                        }
                        vstats.record_iso(nodes);
                    }
                    return Verdict::Counted {
                        tids,
                        stores: new_stores,
                        stats: vstats,
                    };
                }

                // The candidate's representative graph is parents[0]'s
                // graph plus one appended edge (IsoClassMap keeps the
                // first-inserted graph and parent indices are pushed in
                // generation order), so the growth step is recoverable
                // exactly and parent embeddings can be extended in place
                // of a fresh search.
                let p0 = parents[0];
                let ext = derive_extension(frequent[p0].graph.vertex_count(), candidate)
                    .expect("candidate is a one-edge extension of its first parent");
                let p0_tids = &frequent[p0].tids;
                let p0_stores = &stores[p0];
                let vc = candidate.vertex_count();
                // Alternate anchor parents for unverified misses: deleting
                // any other edge of the candidate yields another frequent
                // sub-pattern (closure holds) whose embedding list in the
                // transaction may be exact — growing *that* list settles
                // the candidate by extension, and an empty result there is
                // a proof of absence, no scratch search needed. Each entry
                // is (frequent index, growth step relative to that parent,
                // permutation from candidate slots to grown-row slots).
                // Built lazily: most candidates never hit an unverified
                // miss.
                let mut alts: Option<Vec<(usize, Extension, Vec<usize>)>> = None;
                let alt_checks = std::cell::Cell::new(0usize);
                let build_alts = || {
                    let edges: Vec<_> = candidate.edges().collect();
                    let mut out: Vec<(usize, Extension, Vec<usize>)> = Vec::new();
                    for (ei, &de) in edges.iter().enumerate() {
                        if ei + 1 == edges.len() {
                            // Deleting the appended edge reproduces
                            // parents[0] — the primary anchor that just
                            // failed to verify.
                            continue;
                        }
                        let keep: Vec<_> = edges.iter().copied().filter(|&x| x != de).collect();
                        let (sub, vmap) = candidate.edge_subgraph(&keep);
                        if !tnet_graph::traverse::is_connected(&sub) {
                            continue;
                        }
                        alt_checks.set(alt_checks.get() + 1);
                        let Some(&pi) = prev_index.get(&sub) else {
                            continue;
                        };
                        let pg = &frequent[pi].graph;
                        // Iso witness sub -> parent graph: equal sizes
                        // make the monomorphism a bijection, giving the
                        // slot translation for stored rows.
                        let Some(phi) = Matcher::new(&sub).find_unpruned(pg, Find::AtMost(1)).pop()
                        else {
                            continue;
                        };
                        let phi = phi.as_row().to_vec();
                        let (cs, cd, el) = candidate.edge(de);
                        let pslot = |c| vmap.get(&c).map(|nv| phi[nv.index()]);
                        let mut perm = vec![0usize; vc];
                        for (old, new) in &vmap {
                            perm[old.index()] = phi[new.index()].index();
                        }
                        let ext = match (pslot(cs), pslot(cd)) {
                            (Some(ps), Some(pd)) => Extension::Close {
                                src: ps,
                                dst: pd,
                                elabel: el,
                            },
                            (Some(ps), None) if cs != cd => {
                                // The grown row appends the new vertex's
                                // image after the parent's slots.
                                perm[cd.index()] = pg.vertex_count();
                                Extension::NewDst {
                                    src: ps,
                                    elabel: el,
                                    vlabel: candidate.vertex_label(cd),
                                }
                            }
                            (None, Some(pd)) if cs != cd => {
                                perm[cs.index()] = pg.vertex_count();
                                Extension::NewSrc {
                                    dst: pd,
                                    elabel: el,
                                    vlabel: candidate.vertex_label(cs),
                                }
                            }
                            // An orphaned self-loop vertex is not a
                            // derivable one-edge growth; skip this anchor.
                            _ => continue,
                        };
                        out.push((pi, ext, perm));
                    }
                    out
                };
                let mut scratch: Option<(Matcher, FxHashMap<u32, usize>)> = None;
                let mut j = 0usize;
                for (seen, &tid) in inter.iter().enumerate() {
                    // Infeasibility early-exit: once the misses so far
                    // leave fewer remaining transactions than the support
                    // deficit, the candidate cannot reach threshold and
                    // the per-transaction work left (extensions, scratch
                    // settles) cannot change the verdict. The partial
                    // `tids`/`stores` are discarded by the fold below.
                    if tids.len() + (inter.len() - seen) < min_support {
                        break;
                    }
                    while p0_tids[j] < tid {
                        j += 1;
                    }
                    debug_assert_eq!(p0_tids[j], tid);
                    let txn = transactions.txn(tid as usize);
                    // At the final level no child stores are consumed, so
                    // the first occurrence settles support (witness-only).
                    match grow_store(
                        &txn,
                        &p0_stores[j],
                        &ext,
                        cap,
                        last_level,
                        &mut vstats.embeddings_extended,
                        &mut vstats.embeddings_spilled,
                    ) {
                        Grown::Absent => {}

                        Grown::Unverified => {
                            // Truncated seeds found nothing — an
                            // unverified "no". Try the other closure
                            // parents first: an exact list settles by
                            // extension, and even an inexact one can
                            // still witness. Only when every anchor
                            // stays unverified does the scratch
                            // existence check run.
                            let alts = alts.get_or_insert_with(build_alts);
                            let mut settled = false;
                            for (pi, aext, perm) in alts.iter() {
                                let Ok(jj) = frequent[*pi].tids.binary_search(&tid) else {
                                    // The sub-pattern itself is absent
                                    // from this transaction, so the
                                    // candidate is too.
                                    settled = true;
                                    break;
                                };
                                match grow_store(
                                    &txn,
                                    &stores[*pi][jj],
                                    aext,
                                    cap,
                                    last_level,
                                    &mut vstats.embeddings_extended,
                                    &mut vstats.embeddings_spilled,
                                ) {
                                    Grown::Absent => {
                                        settled = true;
                                        break;
                                    }
                                    Grown::Unverified => {}
                                    Grown::Witnessed { store } => {
                                        tids.push(tid);
                                        if let Some(st) = store {
                                            // Rows arrive in the alt
                                            // parent's slot order with
                                            // any appended vertex last;
                                            // permute into candidate
                                            // slot order.
                                            let mut flat = Vec::with_capacity(st.len() * vc);
                                            for row in st.rows() {
                                                for &p in perm.iter() {
                                                    flat.push(row[p]);
                                                }
                                            }
                                            new_stores
                                                .push(EmbStore::from_rows(vc, flat, st.exact));
                                        }
                                        settled = true;
                                        break;
                                    }
                                }
                            }
                            if settled {
                                continue;
                            }
                            let (matcher, need) = scratch.get_or_insert_with(build_scratch);
                            let counts = &label_counts[tid as usize];
                            if need
                                .iter()
                                .any(|(l, &k)| counts.get(l).copied().unwrap_or(0) < k)
                            {
                                continue;
                            }
                            let mut nodes = 0;
                            if last_level {
                                // No descendant will consume a store;
                                // existence alone settles support.
                                if matcher.matches_counting(&txn, &mut nodes) {
                                    tids.push(tid);
                                }
                                vstats.record_iso(nodes);
                                continue;
                            }
                            // Harvest seeds from the settling search
                            // itself: the VF2 walk that proves existence
                            // re-anchors the embedding list, so
                            // descendants extend seeds instead of paying
                            // a scratch search per (pattern, txn) pair
                            // down the whole subtree. Bounded by the seed
                            // budget; if the search exhausts below the
                            // limit the list is complete — and therefore
                            // exact, restoring `Grown::Absent` fast
                            // paths for the descendants too.
                            let limit = seed_cap().min(txn_cap(cap, &txn));
                            let seeds = matcher.find_unpruned_counting(
                                &txn,
                                Find::AtMost(limit),
                                &mut nodes,
                            );
                            vstats.record_iso(nodes);
                            if !seeds.is_empty() {
                                tids.push(tid);
                                let stride = candidate.vertex_count();
                                let mut flat = Vec::with_capacity(seeds.len() * stride);
                                for s in &seeds {
                                    flat.extend_from_slice(s.as_row());
                                }
                                new_stores.push(EmbStore::from_rows(
                                    stride,
                                    flat,
                                    seeds.len() < limit,
                                ));
                            }
                        }
                        Grown::Witnessed { store } => {
                            tids.push(tid);
                            if let Some(st) = store {
                                new_stores.push(st);
                            }
                        }
                    }
                }
                vstats.iso_class_checks += alt_checks.get();
                Verdict::Counted {
                    tids,
                    stores: new_stores,
                    stats: vstats,
                }
            })
            .map_err(|_| FsgError::Cancelled)?;

        let mut next: Vec<FrequentPattern> = Vec::new();
        let mut next_stores: Vec<Vec<EmbStore>> = Vec::new();
        let mut level_soa_bytes = 0usize;
        for ((candidate, _), verdict) in cand_list.into_iter().zip(verdicts) {
            match verdict {
                Verdict::Pruned(vstats) => {
                    stats.closure_pruned += 1;
                    stats.iso_class_checks += vstats.iso_class_checks;
                    stats.tid_intersection_skips += vstats.tid_intersection_skips;
                    stats.bitset_intersections += vstats.bitset_intersections;
                }
                Verdict::Counted {
                    tids,
                    stores: st,
                    stats: vstats,
                } => {
                    stats.iso_class_checks += vstats.iso_class_checks;
                    stats.iso_tests += vstats.iso_tests;
                    stats.iso_nodes += vstats.iso_nodes;
                    stats.iso_nodes_max = stats.iso_nodes_max.max(vstats.iso_nodes_max);
                    stats.embeddings_extended += vstats.embeddings_extended;
                    stats.embeddings_spilled += vstats.embeddings_spilled;
                    stats.tid_intersection_skips += vstats.tid_intersection_skips;
                    stats.bitset_intersections += vstats.bitset_intersections;
                    if tids.len() >= min_support {
                        next.push(FrequentPattern {
                            support: tids.len(),
                            graph: candidate,
                            tids,
                        });
                        if cap > 0 {
                            level_soa_bytes += st.iter().map(|s| s.byte_len()).sum::<usize>();
                            next_stores.push(st);
                        }
                    }
                }
            }
        }
        stats.soa_bytes = stats.soa_bytes.max(level_soa_bytes);
        stats.frequent_per_level.push(next.len());
        all_frequent.extend(std::mem::replace(&mut frequent, next));
        stores = next_stores;
        drop(support_timer);
    }
    all_frequent.extend(frequent);
    finalize(&mut all_frequent);
    stats.record_into(exec.metrics());
    Ok(FsgOutput {
        patterns: all_frequent,
        stats,
    })
}

fn finalize(patterns: &mut [FrequentPattern]) {
    patterns.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(b.graph.edge_count().cmp(&a.graph.edge_count()))
    });
}

/// Adapter with the signature Algorithm 1's `Find_Frequent_Graphs` slot
/// expects: returns `(pattern, support)` pairs, treating a memory-budget
/// abort as "no patterns from this repetition".
pub fn mine_for_algorithm1(transactions: &[Graph], cfg: &FsgConfig) -> Vec<(Graph, usize)> {
    mine_for_algorithm1_with(transactions, cfg, &Exec::sequential())
}

/// As [`mine_for_algorithm1`], counting support on `exec`'s workers.
pub fn mine_for_algorithm1_with(
    transactions: &[Graph],
    cfg: &FsgConfig,
    exec: &Exec,
) -> Vec<(Graph, usize)> {
    match mine_with(transactions, cfg, exec) {
        Ok(out) => out
            .patterns
            .into_iter()
            .map(|p| (p.graph, p.support))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extend::connected_sub_patterns;
    use crate::types::Support;
    use tnet_graph::generate::shapes;
    use tnet_graph::iso::are_isomorphic;

    fn cfg(count: usize) -> FsgConfig {
        FsgConfig::default()
            .with_support(Support::Count(count))
            .with_max_edges(5)
    }

    #[test]
    fn single_edge_patterns_counted() {
        // 3 transactions: two contain label-1 edges, one contains label-2.
        let t1 = shapes::chain(1, 0, 1);
        let t2 = shapes::chain(2, 0, 1);
        let t3 = shapes::chain(1, 0, 2);
        let out = mine(&[t1, t2, t3], &cfg(2)).unwrap();
        // Only the label-1 single edge and the label-1 2-chain... the
        // 2-chain occurs in just t2 (support 1 < 2). So exactly one.
        assert_eq!(out.patterns.len(), 1);
        assert_eq!(out.patterns[0].support, 2);
        assert_eq!(out.patterns[0].tids, vec![0, 1]);
        assert_eq!(out.patterns[0].graph.edge_count(), 1);
    }

    #[test]
    fn finds_common_hub_pattern() {
        // Every transaction contains a 3-spoke hub; some have extras.
        let mut txns = Vec::new();
        for i in 0..4 {
            let mut g = shapes::hub_and_spoke(3 + i % 2, 0, 1);
            if i == 2 {
                let vs: Vec<_> = g.vertices().collect();
                g.add_edge(vs[1], vs[2], tnet_graph::graph::ELabel(7));
            }
            txns.push(g);
        }
        let out = mine(&txns, &cfg(4)).unwrap();
        let hub3 = shapes::hub_and_spoke(3, 0, 1);
        assert!(
            out.patterns.iter().any(|p| are_isomorphic(&p.graph, &hub3)),
            "3-spoke hub should be frequent in all 4 transactions"
        );
        // And its support is full.
        let p = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &hub3))
            .unwrap();
        assert_eq!(p.support, 4);
    }

    #[test]
    fn support_is_antitone_in_extension() {
        // Any frequent k+1 pattern's support can't exceed its sub-patterns'.
        let txns: Vec<Graph> = (0..6).map(|i| shapes::chain(2 + i % 3, 0, 1)).collect();
        let out = mine(&txns, &cfg(2)).unwrap();
        for p in &out.patterns {
            for sub in connected_sub_patterns(&p.graph) {
                let sup_sub = out
                    .patterns
                    .iter()
                    .find(|q| are_isomorphic(&q.graph, &sub))
                    .map(|q| q.support);
                if let Some(s) = sup_sub {
                    assert!(s >= p.support);
                }
            }
        }
    }

    #[test]
    fn respects_max_edges() {
        let txns: Vec<Graph> = (0..3).map(|_| shapes::chain(6, 0, 1)).collect();
        let out = mine(&txns, &cfg(3).with_max_edges(3)).unwrap();
        assert!(out.patterns.iter().all(|p| p.graph.edge_count() <= 3));
        assert!(out.patterns.iter().any(|p| p.graph.edge_count() == 3));
    }

    #[test]
    fn memory_budget_aborts() {
        // Many distinct vertex labels at min support 1: vocabulary and
        // candidate sets explode, tripping a small budget — the §6.1
        // reproduction.
        let mut txns = Vec::new();
        for t in 0..4 {
            let mut g = Graph::new();
            let vs: Vec<_> = (0..12).map(|i| g.add_vertex(VLabel(t * 12 + i))).collect();
            for i in 0..11 {
                g.add_edge(vs[i], vs[i + 1], ELabel(i as u32 % 3));
            }
            txns.push(g);
        }
        let cfg = FsgConfig::default()
            .with_support(Support::Count(1))
            .with_memory_budget(4_096);
        match mine(&txns, &cfg) {
            Err(FsgError::MemoryBudgetExceeded { level, .. }) => {
                assert!(level >= 2);
            }
            other => panic!("expected budget abort, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_trivial_inputs() {
        let out = mine(&[], &cfg(1)).unwrap();
        assert!(out.patterns.is_empty());
        let mut single = Graph::new();
        single.add_vertex(VLabel(0));
        let out = mine(&[single], &cfg(1)).unwrap();
        assert!(out.patterns.is_empty(), "no edges, no patterns");
    }

    #[test]
    fn self_loops_mined() {
        let mut txns = Vec::new();
        for _ in 0..3 {
            let mut g = Graph::new();
            let a = g.add_vertex(VLabel(1));
            let b = g.add_vertex(VLabel(1));
            g.add_edge(a, a, ELabel(0));
            g.add_edge(a, b, ELabel(2));
            txns.push(g);
        }
        let out = mine(&txns, &cfg(3)).unwrap();
        // Loop pattern frequent.
        let mut loop_pat = Graph::new();
        let v = loop_pat.add_vertex(VLabel(1));
        loop_pat.add_edge(v, v, ELabel(0));
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &loop_pat)));
        // Combined loop + edge 2-pattern frequent too.
        let mut combo = loop_pat.clone();
        let b = combo.add_vertex(VLabel(1));
        let v0 = combo.vertices().next().unwrap();
        combo.add_edge(v0, b, ELabel(2));
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &combo)));
    }

    #[test]
    fn stats_are_recorded() {
        let txns: Vec<Graph> = (0..3).map(|_| shapes::cycle(4, 0, 1)).collect();
        let out = mine(&txns, &cfg(3)).unwrap();
        assert_eq!(
            out.stats.candidates_per_level.len(),
            out.stats.frequent_per_level.len()
        );
        assert!(out.stats.embeddings_extended > 0);
        assert!(out.stats.total_frequent() >= out.patterns.len());
        // Scratch mode still exercises the iso-test counter.
        let txns: Vec<Graph> = (0..3).map(|_| shapes::cycle(4, 0, 1)).collect();
        let out = mine(&txns, &cfg(3).with_embedding_cap(0)).unwrap();
        assert!(out.stats.iso_tests > 0);
        assert_eq!(out.stats.embeddings_extended, 0);
    }

    #[test]
    fn propagated_matches_scratch() {
        // Mixed shapes: chains, hubs (twin symmetry), cycles, self-loops.
        let mut txns: Vec<Graph> = Vec::new();
        for i in 0..6 {
            let mut g = shapes::hub_and_spoke(2 + i % 3, 0, 1);
            let vs: Vec<_> = g.vertices().collect();
            if i % 2 == 0 {
                g.add_edge(vs[1], vs[0], ELabel(1));
            }
            g.add_edge(vs[0], vs[0], ELabel(2));
            txns.push(g);
        }
        for cap in [1, 2, 256] {
            let scratch = mine(&txns, &cfg(3).with_embedding_cap(0)).unwrap();
            let prop = mine(&txns, &cfg(3).with_embedding_cap(cap)).unwrap();
            assert_eq!(scratch.patterns.len(), prop.patterns.len(), "cap={cap}");
            for (a, b) in scratch.patterns.iter().zip(&prop.patterns) {
                assert_eq!(a.support, b.support, "cap={cap}");
                assert_eq!(a.tids, b.tids, "cap={cap}");
                assert!(are_isomorphic(&a.graph, &b.graph), "cap={cap}");
            }
        }
        // A tiny cap must exercise the spill path on the hub shapes.
        let tiny = mine(&txns, &cfg(3).with_embedding_cap(1)).unwrap();
        assert!(tiny.stats.embeddings_spilled > 0);
        assert!(tiny.stats.iso_tests > 0);
    }

    #[test]
    fn algorithm1_adapter() {
        let txns: Vec<Graph> = (0..3).map(|_| shapes::chain(2, 0, 1)).collect();
        let pairs = mine_for_algorithm1(&txns, &cfg(3));
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(g, s)| g.edge_count() >= 1 && *s == 3));
    }
}

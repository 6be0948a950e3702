//! Isomorphism classes: invariant hashing and iso-keyed collections.
//!
//! The miners repeatedly need "have I seen this pattern (up to
//! isomorphism) before?" — FSG for candidate deduplication and
//! downward-closure checks, SUBDUE for grouping instance extensions.
//!
//! Rather than a canonical code (whose minimum-DFS-code construction is
//! easy to get subtly wrong for directed multigraphs), we use the classic
//! two-tier scheme:
//!
//! 1. a **Weisfeiler–Leman invariant hash** — identical for isomorphic
//!    graphs by construction, and a strong discriminator in practice;
//! 2. an **exact VF2 isomorphism check** among the (rare) hash-bucket
//!    collisions.
//!
//! This gives provable correctness with near-hash performance: bucket
//! sizes stay at 1–2 for the small patterns mining produces.

use crate::graph::{Graph, VertexId};
use crate::hash::{FxHashMap, FxHasher};
use crate::iso::are_isomorphic;
use std::hash::Hasher;

fn mix(parts: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

fn mix_sorted(parts: &mut [u64]) -> u64 {
    parts.sort_unstable();
    mix(parts)
}

/// Number of WL refinement rounds. Three rounds separate everything the
/// miners generate; collisions beyond that are caught by the exact check.
const WL_ROUNDS: usize = 3;

/// An isomorphism-invariant 64-bit hash of a labeled directed multigraph:
/// isomorphic graphs always hash equal; unequal hashes prove
/// non-isomorphism.
///
/// The result is memoized on the graph (invalidated by mutation, carried
/// by `clone()`), so repeated iso-class lookups on the same pattern — the
/// miners' closure checks and visited-set probes — compute the WL
/// refinement once.
pub fn invariant_hash(g: &Graph) -> u64 {
    *g.hash_cache.get_or_init(|| wl_hash(g))
}

/// The WL refinement behind [`invariant_hash`]. It depends only on
/// labels and structure, never on id numbering.
fn wl_hash(g: &Graph) -> u64 {
    if g.vertex_count() == 0 {
        return mix(&[0x9e37_79b9]);
    }
    let verts: Vec<VertexId> = g.vertices().collect();
    // Arena-indexed color tables and reused neighbour buffers: the miners
    // hash tiny dense patterns millions of times, and flat vectors beat
    // per-round hash maps by a large constant factor there. Dead arena
    // slots keep color 0 and are never read (edge iterators only yield
    // live endpoints).
    let slots = verts.last().map(|v| v.index() + 1).unwrap_or(0);
    let mut color = vec![0u64; slots];
    for &v in &verts {
        color[v.index()] = mix(&[1, g.vertex_label(v).0 as u64]);
    }
    let mut next = vec![0u64; slots];
    let mut outs: Vec<u64> = Vec::new();
    let mut ins: Vec<u64> = Vec::new();
    for _ in 0..WL_ROUNDS {
        for &v in &verts {
            outs.clear();
            ins.clear();
            for e in g.out_edges(v) {
                let (_, d, l) = g.edge(e);
                outs.push(mix(&[2, l.0 as u64, color[d.index()]]));
            }
            for e in g.in_edges(v) {
                let (s, _, l) = g.edge(e);
                ins.push(mix(&[3, l.0 as u64, color[s.index()]]));
            }
            next[v.index()] = mix(&[
                color[v.index()],
                mix_sorted(&mut outs),
                mix_sorted(&mut ins),
            ]);
        }
        std::mem::swap(&mut color, &mut next);
    }

    let mut vparts: Vec<u64> = verts.iter().map(|&v| color[v.index()]).collect();
    let vertex_part = mix_sorted(&mut vparts);
    let mut eparts: Vec<u64> = g
        .edges()
        .map(|e| {
            let (s, d, l) = g.edge(e);
            mix(&[4, color[s.index()], l.0 as u64, color[d.index()]])
        })
        .collect();
    let edge_part = mix_sorted(&mut eparts);
    mix(&[
        g.vertex_count() as u64,
        g.edge_count() as u64,
        vertex_part,
        edge_part,
    ])
}

/// A map keyed by graph isomorphism class.
///
/// `insert`/`get` cost one invariant hash plus exact iso checks against
/// the few bucket members sharing that hash.
pub struct IsoClassMap<V> {
    buckets: FxHashMap<u64, Vec<(Graph, V)>>,
    len: usize,
}

impl<V> Default for IsoClassMap<V> {
    fn default() -> Self {
        IsoClassMap {
            buckets: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<V> IsoClassMap<V> {
    /// An empty iso-class map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct isomorphism classes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no classes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a reference to the value for `g`'s iso class, if present.
    pub fn get(&self, g: &Graph) -> Option<&V> {
        let h = invariant_hash(g);
        self.buckets
            .get(&h)?
            .iter()
            .find(|(rep, _)| are_isomorphic(rep, g))
            .map(|(_, v)| v)
    }

    /// Returns a mutable reference to the value for `g`'s iso class.
    pub fn get_mut(&mut self, g: &Graph) -> Option<&mut V> {
        let h = invariant_hash(g);
        self.buckets
            .get_mut(&h)?
            .iter_mut()
            .find(|(rep, _)| are_isomorphic(rep, g))
            .map(|(_, v)| v)
    }

    /// True if `g`'s iso class is present.
    pub fn contains(&self, g: &Graph) -> bool {
        self.get(g).is_some()
    }

    /// Inserts `value` for `g`'s iso class; returns the previous value if
    /// the class was already present (the stored representative graph is
    /// kept).
    pub fn insert(&mut self, g: Graph, value: V) -> Option<V> {
        let h = invariant_hash(&g);
        let bucket = self.buckets.entry(h).or_default();
        for (rep, v) in bucket.iter_mut() {
            if are_isomorphic(rep, &g) {
                return Some(std::mem::replace(v, value));
            }
        }
        bucket.push((g, value));
        self.len += 1;
        None
    }

    /// Gets the value for `g`'s class, inserting `default()` if absent.
    pub fn entry_or_insert_with(&mut self, g: &Graph, default: impl FnOnce() -> V) -> &mut V {
        let h = invariant_hash(g);
        let bucket = self.buckets.entry(h).or_default();
        let pos = bucket.iter().position(|(rep, _)| are_isomorphic(rep, g));
        let idx = match pos {
            Some(i) => i,
            None => {
                bucket.push((g.clone(), default()));
                self.len += 1;
                bucket.len() - 1
            }
        };
        &mut bucket[idx].1
    }

    /// Iterates over `(representative graph, value)` pairs in arbitrary
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&Graph, &V)> {
        self.buckets
            .values()
            .flat_map(|b| b.iter().map(|(g, v)| (g, v)))
    }

    /// Consumes the map, yielding `(representative, value)` pairs.
    pub fn into_iter_pairs(self) -> impl Iterator<Item = (Graph, V)> {
        self.buckets.into_values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ELabel, VLabel};

    fn cycle(n: usize, rot: usize) -> Graph {
        let mut g = Graph::new();
        let vs: Vec<_> = (0..n).map(|_| g.add_vertex(VLabel(7))).collect();
        for i in 0..n {
            g.add_edge(vs[(i + rot) % n], vs[(i + rot + 1) % n], ELabel(1));
        }
        g
    }

    #[test]
    fn isomorphic_graphs_hash_equal() {
        assert_eq!(invariant_hash(&cycle(5, 0)), invariant_hash(&cycle(5, 3)));
    }

    #[test]
    fn distinguishes_basic_shapes() {
        let c4 = cycle(4, 0);
        // Path of 4 vertices.
        let mut p = Graph::new();
        let vs: Vec<_> = (0..4).map(|_| p.add_vertex(VLabel(7))).collect();
        for i in 0..3 {
            p.add_edge(vs[i], vs[i + 1], ELabel(1));
        }
        assert_ne!(invariant_hash(&c4), invariant_hash(&p));
        // Hub with 3 spokes vs chain of 4: same |V|,|E| as p.
        let mut h = Graph::new();
        let hub = h.add_vertex(VLabel(7));
        for _ in 0..3 {
            let s = h.add_vertex(VLabel(7));
            h.add_edge(hub, s, ELabel(1));
        }
        assert_ne!(invariant_hash(&h), invariant_hash(&p));
    }

    #[test]
    fn direction_changes_hash() {
        let mut a = Graph::new();
        let x = a.add_vertex(VLabel(0));
        let y = a.add_vertex(VLabel(1));
        a.add_edge(x, y, ELabel(0));
        let mut b = Graph::new();
        let x2 = b.add_vertex(VLabel(0));
        let y2 = b.add_vertex(VLabel(1));
        b.add_edge(y2, x2, ELabel(0));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
    }

    #[test]
    fn labels_change_hash() {
        let mut a = cycle(3, 0);
        let b = cycle(3, 0);
        let v0 = a.vertices().next().unwrap();
        a.set_vertex_label(v0, VLabel(99));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
    }

    #[test]
    fn empty_and_singleton() {
        let e = Graph::new();
        let mut s = Graph::new();
        s.add_vertex(VLabel(0));
        assert_ne!(invariant_hash(&e), invariant_hash(&s));
        assert_eq!(invariant_hash(&e), invariant_hash(&Graph::new()));
    }

    #[test]
    fn class_map_dedups_iso_graphs() {
        let mut m: IsoClassMap<u32> = IsoClassMap::new();
        assert!(m.insert(cycle(5, 0), 1).is_none());
        assert_eq!(m.insert(cycle(5, 2), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get(&cycle(5, 4)).unwrap(), 2);
        assert!(m.insert(cycle(4, 0), 3).is_none());
        assert_eq!(m.len(), 2);
        assert!(!m.contains(&cycle(6, 0)));
    }

    #[test]
    fn entry_api_counts() {
        let mut m: IsoClassMap<u32> = IsoClassMap::new();
        for rot in 0..5 {
            *m.entry_or_insert_with(&cycle(5, rot), || 0) += 1;
        }
        assert_eq!(m.len(), 1);
        assert_eq!(*m.get(&cycle(5, 0)).unwrap(), 5);
    }

    #[test]
    fn parallel_edges_distinguish_from_single() {
        let mut a = Graph::new();
        let x = a.add_vertex(VLabel(0));
        let y = a.add_vertex(VLabel(0));
        a.add_edge(x, y, ELabel(0));
        let mut b = a.clone();
        let (bx, by) = {
            let mut it = b.vertices();
            (it.next().unwrap(), it.next().unwrap())
        };
        b.add_edge(bx, by, ELabel(0));
        assert_ne!(invariant_hash(&a), invariant_hash(&b));
    }
}

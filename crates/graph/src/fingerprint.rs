//! Per-vertex structural fingerprints: a 64-bit necessary-condition
//! filter checked before VF2.
//!
//! Every vertex packs, into one `u64`:
//!
//! * bits 0–15 — vertex-label bloom (one bit, `hash(vlabel) & 15`);
//! * bits 16–31 — out-edge-label bloom (one bit per distinct out label);
//! * bits 32–47 — in-edge-label bloom;
//! * bits 48–55 — distinct out-neighbor count in unary, saturated at 8
//!   (`(1 << min(n, 8)) - 1`);
//! * bits 56–63 — distinct in-neighbor count in unary, saturated at 8.
//!
//! If pattern vertex `p` maps onto target vertex `t` under any subgraph
//! monomorphism, then `t` has the same vertex label, a superset of `p`'s
//! incident edge labels in each direction, and — because the vertex
//! mapping is injective — at least as many distinct neighbors in each
//! direction. (Raw degrees are *not* monotone here: the matcher checks
//! edge existence, so parallel pattern edges may collapse onto one target
//! edge.) Every field of `fp(p)` is therefore a bitwise subset of the
//! matching field of `fp(t)`. Labels bloom into 16-bit fields and
//! neighbor counts are unary, which makes *all five* subset checks one
//! expression: `fp(p) & !fp(t) == 0`. The converse does not hold (blooms
//! collide, counts saturate), so the filter only ever skips work, never
//! answers "yes" — rejections are sound, acceptances still run VF2.
//!
//! Fingerprints are a pure function of the [`GraphView`] surface (labels,
//! degrees, incident labels), so the arena and frozen representations of
//! the same graph produce identical values — filter decisions, counters,
//! and therefore miner output stay byte-identical across representations.
//! The frozen form precomputes the array at freeze time and overrides
//! [`GraphView::vertex_fp`] with an array load; the arena computes on
//! demand.

use crate::graph::VertexId;
use crate::view::GraphView;

/// Bloom-bit index (0–15) for a label value. Multiplicative hash so
/// consecutive label ids (the common case after binning) spread across
/// the field instead of clustering.
#[inline]
pub fn label_bit(label: u32) -> u32 {
    (((label as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) & 15) as u32
}

/// Computes the fingerprint of `v` from any view. See the module docs
/// for the layout.
pub fn vertex_fingerprint<G: GraphView + ?Sized>(g: &G, v: VertexId) -> u64 {
    let mut fp = 1u64 << label_bit(g.vertex_label(v).0);
    let mut out_nbrs: Vec<u32> = Vec::new();
    for e in g.out_edges(v) {
        let (_, d, l) = g.edge(e);
        out_nbrs.push(d.0);
        fp |= 1u64 << (16 + label_bit(l.0));
    }
    let mut in_nbrs: Vec<u32> = Vec::new();
    for e in g.in_edges(v) {
        let (s, _, l) = g.edge(e);
        in_nbrs.push(s.0);
        fp |= 1u64 << (32 + label_bit(l.0));
    }
    out_nbrs.sort_unstable();
    out_nbrs.dedup();
    in_nbrs.sort_unstable();
    in_nbrs.dedup();
    fp | ((1u64 << out_nbrs.len().min(8)) - 1) << 48 | ((1u64 << in_nbrs.len().min(8)) - 1) << 56
}

/// Fingerprints of every vertex of `g`, indexed by dense vertex id (the
/// miners' pattern graphs are append-only, so ids are dense).
pub fn graph_fingerprints<G: GraphView + ?Sized>(g: &G) -> Vec<u64> {
    g.vertices().map(|v| vertex_fingerprint(g, v)).collect()
}

/// True if `pattern_fp` could map onto `target_fp`: every packed field
/// of the pattern fingerprint is a bitwise subset of the target's.
#[inline]
pub fn fp_subsumes(pattern_fp: u64, target_fp: u64) -> bool {
    pattern_fp & !target_fp == 0
}

/// Necessary condition for `pattern ⊑ target`: every pattern vertex has
/// at least one fingerprint-compatible target vertex. `false` proves no
/// embedding exists; `true` proves nothing. `O(|Vp| · |Vt|)` with early
/// exit per pattern vertex — cheap relative to a VF2 search, and the
/// caller amortizes `pattern_fps` across all transactions.
pub fn may_embed<G: GraphView + ?Sized>(pattern_fps: &[u64], target: &G) -> bool {
    pattern_fps.iter().all(|&pfp| {
        target
            .vertices()
            .any(|tv| fp_subsumes(pfp, target.vertex_fp(tv)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_transactions, shapes, RandomGraphConfig};
    use crate::graph::{ELabel, Graph, VLabel};
    use crate::iso::has_embedding;

    #[test]
    fn fingerprint_fields_reflect_structure() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(3));
        let b = g.add_vertex(VLabel(3));
        g.add_edge(a, b, ELabel(7));
        let fa = vertex_fingerprint(&g, a);
        let fb = vertex_fingerprint(&g, b);
        // Same vertex label → same low field.
        assert_eq!(fa & 0xFFFF, fb & 0xFFFF);
        // a has one out edge, no in edges; b mirrors it.
        assert_eq!((fa >> 48) & 0xFF, 1, "out-degree 1 in unary");
        assert_eq!(fa >> 56, 0, "no in edges");
        assert_eq!((fb >> 48) & 0xFF, 0);
        assert_eq!(fb >> 56, 1);
        // The edge label blooms into opposite direction fields.
        assert_ne!(fa & 0xFFFF_0000, 0);
        assert_eq!(fa & 0xFFFF_0000_0000, 0);
        assert_ne!(fb & 0xFFFF_0000_0000, 0);
    }

    #[test]
    fn degree_saturates_at_eight() {
        let g = shapes::hub_and_spoke(12, 0, 1);
        let hub = g.vertices().next().unwrap();
        let fp = vertex_fingerprint(&g, hub);
        assert_eq!((fp >> 48) & 0xFF, 0xFF, "12 out edges saturate to 8");
    }

    #[test]
    fn subsumption_is_reflexive_and_degree_monotone() {
        let small = shapes::hub_and_spoke(2, 0, 1);
        let big = shapes::hub_and_spoke(5, 0, 1);
        let hub_s = vertex_fingerprint(&small, small.vertices().next().unwrap());
        let hub_b = vertex_fingerprint(&big, big.vertices().next().unwrap());
        assert!(fp_subsumes(hub_s, hub_s));
        assert!(fp_subsumes(hub_s, hub_b), "2-hub maps onto 5-hub");
        assert!(!fp_subsumes(hub_b, hub_s), "5-hub cannot map onto 2-hub");
    }

    /// Soundness on random graphs: whenever an embedding exists, the
    /// fingerprint filter must pass (a reject with an existing embedding
    /// would silently drop frequent patterns).
    #[test]
    fn never_rejects_an_existing_embedding() {
        let cfg = RandomGraphConfig {
            vertices: 12,
            edges: 20,
            vertex_labels: 3,
            edge_labels: 3,
            self_loops: true,
        };
        let targets = random_transactions(8, &cfg, 11);
        // Patterns carved out of the targets embed by construction; the
        // cross product (pattern of target i vs target j) adds genuine
        // maybe-cases on top.
        let patterns: Vec<Graph> = targets
            .iter()
            .flat_map(|t| {
                let edges: Vec<_> = t.edges().collect();
                [&edges[..2], &edges[..4]]
                    .into_iter()
                    .map(|ids| crate::view::edge_subgraph(t, ids).0)
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut embedded = 0;
        for p in &patterns {
            let pfps = graph_fingerprints(p);
            for t in &targets {
                if has_embedding(p, t) {
                    embedded += 1;
                    assert!(may_embed(&pfps, t), "filter rejected a real embedding");
                }
            }
        }
        assert!(
            embedded >= targets.len(),
            "workload too sparse to test anything"
        );
    }

    /// Representation parity: arena and frozen fingerprints are
    /// identical, which is what keeps filter decisions byte-identical
    /// across the frozen-vs-arena differential.
    #[test]
    fn frozen_matches_arena() {
        let cfg = RandomGraphConfig {
            vertices: 15,
            edges: 30,
            vertex_labels: 4,
            edge_labels: 3,
            self_loops: true,
        };
        for g in &random_transactions(5, &cfg, 91) {
            let fg = g.freeze();
            for v in g.vertices() {
                assert_eq!(g.vertex_fp(v), fg.view().vertex_fp(v));
            }
        }
    }
}

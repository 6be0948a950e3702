//! Seeded property tests for the graph substrate.
//!
//! Invariants verified here underpin the correctness of both miners:
//! isomorphism must be an equivalence relation blind to vertex numbering,
//! the invariant hash must never separate isomorphic graphs, and freezing
//! must be a lossless representation change. Each property runs a fixed
//! number of random cases from its own seeded [`StdRng`], so a failure
//! reproduces identically; assertion messages name the failing case.

use std::collections::HashSet;
use tnet_graph::canon::invariant_hash;
use tnet_graph::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use tnet_graph::iso::{are_isomorphic, find_embeddings, has_embedding, Find};
use tnet_graph::rng::{Rng, SliceRandom, StdRng};
use tnet_graph::traverse::{connected_components, is_connected, split_components};
use tnet_graph::view::GraphView;

/// Random cases per property.
const CASES: usize = 64;

/// A generated edge: (src index, dst index, edge label).
type RawEdge = (usize, usize, u32);

/// A generated graph: (vertex labels, edges).
type RawGraph = (Vec<u32>, Vec<RawEdge>);

/// A small random labeled digraph: `1..=max_v` vertices and `0..=max_e`
/// edges, both over three labels. Endpoints are drawn independently, so
/// self-loops and parallel edges occur.
fn raw_graph(rng: &mut StdRng, max_v: usize, max_e: usize) -> RawGraph {
    let nv = rng.gen_range(1..=max_v);
    let vlabels = (0..nv).map(|_| rng.gen_range(0..3u32)).collect();
    let ne = rng.gen_range(0..=max_e);
    let edges = (0..ne)
        .map(|_| {
            (
                rng.gen_range(0..nv),
                rng.gen_range(0..nv),
                rng.gen_range(0..3u32),
            )
        })
        .collect();
    (vlabels, edges)
}

/// The cases of one property: a two-vertex graph of self-loops that
/// once shrank out of a failing random case, then [`CASES`] graphs from
/// the seeded generator.
fn cases(rng: &mut StdRng, max_v: usize, max_e: usize) -> Vec<RawGraph> {
    let mut out = vec![(vec![2, 2], vec![(1, 1, 1), (0, 0, 0)])];
    out.extend((0..CASES).map(|_| raw_graph(rng, max_v, max_e)));
    out
}

fn build(vlabels: &[u32], edges: &[RawEdge]) -> Graph {
    let mut g = Graph::new();
    let vs: Vec<VertexId> = vlabels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
    for &(s, d, l) in edges {
        g.add_edge(vs[s], vs[d], ELabel(l));
    }
    g
}

/// Builds the same graph with vertices inserted in permuted order.
fn build_permuted(vlabels: &[u32], edges: &[RawEdge], perm: &[usize]) -> Graph {
    let mut g = Graph::new();
    // ids[original index] = new VertexId
    let mut ids: Vec<Option<VertexId>> = vec![None; vlabels.len()];
    for &orig in perm {
        ids[orig] = Some(g.add_vertex(VLabel(vlabels[orig])));
    }
    for &(s, d, l) in edges {
        g.add_edge(ids[s].unwrap(), ids[d].unwrap(), ELabel(l));
    }
    g
}

/// Removes up to two distinct random vertices (and their edges), leaving
/// tombstones in the arena.
fn kill_vertices(g: &mut Graph, rng: &mut StdRng) {
    let mut vs: Vec<VertexId> = g.vertices().collect();
    vs.shuffle(rng);
    let k = rng.gen_range(0..3usize).min(vs.len());
    for &v in &vs[..k] {
        g.remove_vertex(v);
    }
}

/// Isomorphism is reflexive.
#[test]
fn iso_reflexive() {
    let mut rng = StdRng::seed_from_u64(1);
    for (i, (vl, es)) in cases(&mut rng, 7, 12).iter().enumerate() {
        let g = build(vl, es);
        assert!(are_isomorphic(&g, &g), "case {i}: {vl:?} {es:?}");
    }
}

/// Renumbering vertices never changes the isomorphism class or the
/// invariant hash.
#[test]
fn iso_invariant_under_permutation() {
    let mut rng = StdRng::seed_from_u64(2);
    for (i, (vl, es)) in cases(&mut rng, 7, 12).iter().enumerate() {
        let g = build(vl, es);
        let mut perm: Vec<usize> = (0..vl.len()).collect();
        perm.shuffle(&mut rng);
        let h = build_permuted(vl, es, &perm);
        assert!(are_isomorphic(&g, &h), "case {i}: {vl:?} {es:?} {perm:?}");
        assert_eq!(invariant_hash(&g), invariant_hash(&h), "case {i}");
    }
}

/// Unequal invariant hashes imply non-isomorphism (contrapositive of
/// hash soundness): whenever the exact check says isomorphic, hashes
/// agree.
#[test]
fn hash_sound() {
    let mut rng = StdRng::seed_from_u64(3);
    let lhs = cases(&mut rng, 5, 8);
    let rhs = cases(&mut rng, 5, 8);
    for (i, ((vl1, es1), (vl2, es2))) in lhs.iter().zip(&rhs).enumerate() {
        let a = build(vl1, es1);
        let b = build(vl2, es2);
        if are_isomorphic(&a, &b) {
            assert_eq!(invariant_hash(&a), invariant_hash(&b), "case {i}");
        }
    }
}

/// Every graph embeds in itself, and single-edge subpatterns embed.
#[test]
fn self_embedding() {
    let mut rng = StdRng::seed_from_u64(4);
    for (i, (vl, es)) in cases(&mut rng, 6, 10).iter().enumerate() {
        let g = build(vl, es);
        if g.edge_count() == 0 {
            continue;
        }
        assert!(has_embedding(&g, &g), "case {i}: {vl:?} {es:?}");
        // Each single edge of g is a pattern occurring in g.
        for e in g.edges() {
            let (sub, _) = g.edge_subgraph(&[e]);
            assert!(has_embedding(&sub, &g), "case {i}, edge {e:?}");
        }
    }
}

/// Embeddings map pattern edges onto existing target edges with
/// matching labels (spot-check of the §4 definition).
#[test]
fn embeddings_are_valid() {
    let mut rng = StdRng::seed_from_u64(5);
    for (i, (vl, es)) in cases(&mut rng, 5, 8).iter().enumerate() {
        let g = build(vl, es);
        let edges: Vec<EdgeId> = g.edges().collect();
        if edges.len() < 2 {
            continue;
        }
        let (pat, _) = g.edge_subgraph(&edges[..2]);
        for emb in find_embeddings(&pat, &g, Find::AtMost(16)) {
            for pe in pat.edges() {
                let (ps, pd, pl) = pat.edge(pe);
                let ts = emb.image(ps);
                let td = emb.image(pd);
                let found = g.out_edges(ts).any(|te| {
                    let (_, d2, l2) = g.edge(te);
                    d2 == td && l2 == pl
                });
                assert!(found, "case {i}: pattern edge not realized in target");
            }
            // Injectivity.
            let mut seen = HashSet::new();
            for tv in emb.target_vertices() {
                assert!(seen.insert(tv), "case {i}: two pattern vertices on {tv:?}");
            }
        }
    }
}

/// Components partition the vertex set, and splitting preserves edge
/// totals.
#[test]
fn components_partition() {
    let mut rng = StdRng::seed_from_u64(6);
    for (i, (vl, es)) in cases(&mut rng, 8, 12).iter().enumerate() {
        let g = build(vl, es);
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.vertex_count(), "case {i}");
        let mut seen = HashSet::new();
        for c in &comps {
            for v in c {
                assert!(seen.insert(*v), "case {i}: vertex in two components");
            }
        }
        let parts = split_components(&g);
        let esum: usize = parts.iter().map(|p| p.edge_count()).sum();
        assert_eq!(esum, g.edge_count(), "case {i}");
        for p in &parts {
            assert!(is_connected(p), "case {i}");
        }
    }
}

/// dedup_edges removes exactly the duplicate (src,dst,label) triples.
#[test]
fn dedup_is_exact() {
    let mut rng = StdRng::seed_from_u64(7);
    for (i, (vl, es)) in cases(&mut rng, 6, 14).iter().enumerate() {
        let mut g = build(vl, es);
        let before = g.edge_count();
        let mut triples = HashSet::new();
        let expect_removed = g.edges().filter(|&e| !triples.insert(g.edge(e))).count();
        let removed = g.dedup_edges();
        assert_eq!(removed, expect_removed, "case {i}");
        assert_eq!(g.edge_count(), before - removed, "case {i}");
        // Idempotent.
        assert_eq!(g.dedup_edges(), 0, "case {i}");
    }
}

/// `g.freeze().view()` equals a compacted clone of `g` edge for edge:
/// the frozen CSR is a lossless representation change that numbers ids
/// in live-id order, even when the builder carries tombstones from
/// removals, self-loops and parallel edges.
#[test]
fn freeze_matches_compacted_clone() {
    let mut rng = StdRng::seed_from_u64(8);
    let (mut tombstoned, mut looped, mut parallel) = (0, 0, 0);
    for (i, (vl, es)) in cases(&mut rng, 7, 12).iter().enumerate() {
        let mut g = build(vl, es);
        kill_vertices(&mut g, &mut rng);
        let live: Vec<EdgeId> = g.edges().collect();
        if let Some(&e) = live.choose(&mut rng) {
            g.remove_edge(e);
        }
        let mut c = g.clone();
        c.compact();
        let fg = g.freeze();
        let t = fg.view();

        assert_eq!(t.vertex_count(), c.vertex_count(), "case {i}");
        assert_eq!(t.edge_count(), c.edge_count(), "case {i}");
        let tv: Vec<VertexId> = t.vertices().collect();
        assert_eq!(tv, c.vertices().collect::<Vec<_>>(), "case {i}");
        for &v in &tv {
            assert_eq!(t.vertex_label(v), c.vertex_label(v), "case {i}");
        }
        let te: Vec<_> = t.edges().map(|e| (e, t.edge(e))).collect();
        let ce: Vec<_> = c.edges().map(|e| (e, c.edge(e))).collect();
        assert_eq!(te, ce, "case {i}: edge triples in order");

        let elabels = [ELabel(0), ELabel(1), ELabel(2)];
        let vlabels = [VLabel(0), VLabel(1), VLabel(2)];
        for &v in &tv {
            assert_eq!(
                t.out_edges(v).collect::<Vec<_>>(),
                c.out_edges(v).collect::<Vec<_>>(),
                "case {i}: out row of {v:?}"
            );
            assert_eq!(
                t.in_edges(v).collect::<Vec<_>>(),
                c.in_edges(v).collect::<Vec<_>>(),
                "case {i}: in row of {v:?}"
            );
            // Label-run queries: the CSR's binary searches against the
            // arena's linear default.
            for el in elabels {
                for vl in vlabels {
                    let (mut fast, mut slow) = (Vec::new(), Vec::new());
                    t.visit_out_matching(v, el, vl, &mut |e, d| fast.push((e, d)));
                    c.visit_out_matching(v, el, vl, &mut |e, d| slow.push((e, d)));
                    assert_eq!(fast, slow, "case {i}: out run {v:?} {el:?} {vl:?}");
                    assert_eq!(t.count_out_matching(v, el, vl), slow.len(), "case {i}");
                    let (mut fast, mut slow) = (Vec::new(), Vec::new());
                    t.visit_in_matching(v, el, vl, &mut |e, s| fast.push((e, s)));
                    c.visit_in_matching(v, el, vl, &mut |e, s| slow.push((e, s)));
                    assert_eq!(fast, slow, "case {i}: in run {v:?} {el:?} {vl:?}");
                    assert_eq!(t.count_in_matching(v, el, vl), slow.len(), "case {i}");
                }
                for &d in &tv {
                    assert_eq!(
                        t.has_edge_labeled(v, d, el),
                        c.has_edge_labeled(v, d, el),
                        "case {i}: {v:?} -{el:?}-> {d:?}"
                    );
                }
            }
        }

        let mut triples = HashSet::new();
        let simple = c.edges().all(|e| triples.insert(c.edge(e)));
        assert_eq!(t.is_simple(), simple, "case {i}");

        tombstoned += usize::from(g.vertex_count() < vl.len() || g.edge_count() < es.len());
        looped += usize::from(c.edges().any(|e| c.edge_src(e) == c.edge_dst(e)));
        parallel += usize::from(!simple);
    }
    assert!(
        tombstoned > 0 && looped > 0 && parallel > 0,
        "cases must cover tombstones ({tombstoned}), self-loops ({looped}) \
         and parallel edges ({parallel})"
    );
}

/// compact() preserves the isomorphism class.
#[test]
fn compact_preserves_structure() {
    let mut rng = StdRng::seed_from_u64(9);
    for (i, (vl, es)) in cases(&mut rng, 7, 12).iter().enumerate() {
        let mut g = build(vl, es);
        kill_vertices(&mut g, &mut rng);
        if g.vertex_count() == 0 {
            continue;
        }
        let before = g.clone();
        g.compact();
        assert!(are_isomorphic(&before, &g), "case {i}: {vl:?} {es:?}");
    }
}

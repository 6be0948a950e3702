//! Differential check of the canonical code against the VF2 isomorphism
//! test: on seeded random labeled multigraphs (self-loops and parallel
//! edges included), two graphs get equal codes exactly when
//! `are_isomorphic` says they are isomorphic, and every renumbered copy
//! gets the same code. Same-label cycle covers and vertex-transitive
//! graphs, which colour refinement cannot split, check the search that
//! breaks the ties.
//!
//! `TNET_CANON_PAIRS` sets the number of random pairs (default 3,000);
//! `ci.sh` runs it in release at 100,000.

use tnet_graph::canon::{invariant_hash, CanonicalCode};
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::iso::are_isomorphic;
use tnet_graph::rng::{Rng, SliceRandom, StdRng};

/// A generated edge: (src index, dst index, edge label).
type RawEdge = (usize, usize, u32);

/// A generated graph: (vertex labels, edges).
type RawGraph = (Vec<u32>, Vec<RawEdge>);

fn pairs() -> usize {
    std::env::var("TNET_CANON_PAIRS")
        .ok()
        .map(|s| s.parse().expect("TNET_CANON_PAIRS is a count"))
        .unwrap_or(3_000)
}

/// `nv` vertices and `ne` edges over small alphabets, so symmetric and
/// near-symmetric graphs are common. Endpoints are drawn independently:
/// self-loops and parallel edges occur.
fn raw_graph(rng: &mut StdRng, nv: usize, ne: usize, vlabels: u32, elabels: u32) -> RawGraph {
    let vl = (0..nv).map(|_| rng.gen_range(0..vlabels)).collect();
    let es = (0..ne)
        .map(|_| {
            (
                rng.gen_range(0..nv),
                rng.gen_range(0..nv),
                rng.gen_range(0..elabels),
            )
        })
        .collect();
    (vl, es)
}

/// Builds `raw` with vertex `i` inserted at position `perm[i]` and the
/// edges in shuffled order.
fn build(raw: &RawGraph, perm: &[usize], edge_order: &[usize]) -> Graph {
    let (vl, es) = raw;
    let mut g = Graph::new();
    let mut ids = vec![VertexId(0); vl.len()];
    let mut by_pos: Vec<usize> = (0..vl.len()).collect();
    by_pos.sort_by_key(|&i| perm[i]);
    for i in by_pos {
        ids[i] = g.add_vertex(VLabel(vl[i]));
    }
    for &k in edge_order {
        let (s, d, l) = es[k];
        g.add_edge(ids[s], ids[d], ELabel(l));
    }
    g
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p = identity(n);
    p.shuffle(rng);
    p
}

/// Equal codes iff isomorphic, over three kinds of pair: a renumbered
/// copy, a renumbered copy with one edge moved or relabeled, and an
/// unrelated graph of the same size.
#[test]
fn codes_agree_with_vf2() {
    let mut rng = StdRng::seed_from_u64(29);
    let (mut iso, mut non_iso) = (0usize, 0usize);
    for case in 0..pairs() {
        let nv = rng.gen_range(1..=7usize);
        let ne = rng.gen_range(0..=12usize);
        let (vlabels, elabels) = (rng.gen_range(1..=3u32), rng.gen_range(1..=2u32));
        let a_raw = raw_graph(&mut rng, nv, ne, vlabels, elabels);
        let a = build(&a_raw, &identity(nv), &identity(ne));
        let code_a = CanonicalCode::of(&a);
        let parts: Vec<[u32; 3]> = a_raw
            .1
            .iter()
            .map(|&(s, d, l)| [s as u32, d as u32, l])
            .collect();
        assert_eq!(
            CanonicalCode::of_parts(&a_raw.0, &parts),
            code_a,
            "case {case}: code from parts of {a_raw:?}"
        );

        let copy = build(&a_raw, &shuffled(nv, &mut rng), &shuffled(ne, &mut rng));
        assert_eq!(
            CanonicalCode::of(&copy),
            code_a,
            "case {case}: renumbered copy of {a_raw:?}"
        );

        let b_raw = match case % 2 {
            0 if ne > 0 => {
                let mut b = a_raw.clone();
                let k = rng.gen_range(0..ne);
                match rng.gen_range(0..3u32) {
                    0 => b.1[k].0 = rng.gen_range(0..nv),
                    1 => b.1[k].1 = rng.gen_range(0..nv),
                    _ => b.1[k].2 = rng.gen_range(0..elabels),
                }
                b
            }
            _ => raw_graph(&mut rng, nv, ne, vlabels, elabels),
        };
        let b = build(&b_raw, &shuffled(nv, &mut rng), &shuffled(ne, &mut rng));
        let same_code = CanonicalCode::of(&b) == code_a;
        let isomorphic = are_isomorphic(&a, &b);
        assert_eq!(
            same_code,
            isomorphic,
            "case {case}: codes {} but VF2 says {}: {a_raw:?} vs {b_raw:?}",
            if same_code { "equal" } else { "differ" },
            if isomorphic { "isomorphic" } else { "not" },
        );
        if isomorphic {
            iso += 1;
        } else {
            non_iso += 1;
        }
    }
    assert!(iso > 0 && non_iso > 0, "iso {iso}, non-iso {non_iso}");
}

/// Disjoint directed same-label cycles of total size `sizes.sum()`.
fn cycles(sizes: &[usize]) -> Graph {
    let mut g = Graph::new();
    for &k in sizes {
        let vs: Vec<_> = (0..k).map(|_| g.add_vertex(VLabel(0))).collect();
        for i in 0..k {
            g.add_edge(vs[i], vs[(i + 1) % k], ELabel(0));
        }
    }
    g
}

/// Same-label directed cycles are the worst case of colour refinement
/// (every vertex keeps one colour until one is individualized). Up to
/// 12 vertices, renumbered copies share a code, and cycle covers of the
/// same size, which the WL hash cannot separate, get distinct codes.
#[test]
fn directed_cycles_up_to_twelve() {
    let mut rng = StdRng::seed_from_u64(12);
    for n in 1..=12 {
        // Every way to cover n vertices with cycles of size >= 2 (or one
        // loop when n == 1), as non-increasing size lists.
        let mut covers: Vec<Vec<usize>> = Vec::new();
        fn partitions(rest: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if rest == 0 {
                out.push(cur.clone());
                return;
            }
            for k in (2..=rest.min(max)).rev() {
                cur.push(k);
                partitions(rest - k, k, cur, out);
                cur.pop();
            }
        }
        if n == 1 {
            covers.push(vec![1]);
        } else {
            partitions(n, n, &mut Vec::new(), &mut covers);
        }
        let mut codes = Vec::new();
        for sizes in &covers {
            let g = cycles(sizes);
            assert_eq!(
                invariant_hash(&g),
                invariant_hash(&cycles(&[n])),
                "{sizes:?}"
            );
            let code = CanonicalCode::of(&g);
            let raw: RawGraph = (
                vec![0; n],
                g.edges()
                    .map(|e| {
                        let (s, d, l) = g.edge(e);
                        (s.index(), d.index(), l.0)
                    })
                    .collect(),
            );
            let m = raw.1.len();
            let copy = build(&raw, &shuffled(n, &mut rng), &shuffled(m, &mut rng));
            assert_eq!(CanonicalCode::of(&copy), code, "cover {sizes:?}");
            codes.push(code);
        }
        for i in 0..codes.len() {
            for j in i + 1..codes.len() {
                assert_ne!(codes[i], codes[j], "{:?} vs {:?}", covers[i], covers[j]);
            }
        }
    }
}

/// Builds an undirected graph (each edge as two opposite arcs) on `n`
/// same-label vertices, vertex `i` inserted at position `perm[i]`.
fn undirected(n: usize, edges: &[(usize, usize)], perm: &[usize]) -> Graph {
    let arcs = edges
        .iter()
        .flat_map(|&(a, b)| [(a, b, 0), (b, a, 0)])
        .collect();
    build(&(vec![0; n], arcs), perm, &identity(2 * edges.len()))
}

/// Vertex-transitive graphs, where colour refinement splits nothing and
/// the automorphism group is large, keep one code under renumbering; the
/// Petersen graph and the pentagonal prism (both 3-regular on 10
/// vertices, so WL-equal) get different codes.
#[test]
fn symmetric_graphs_keep_their_code() {
    let petersen: Vec<(usize, usize)> = (0..5)
        .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5)])
        .collect();
    let prism: Vec<(usize, usize)> = (0..5)
        .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 1) % 5)])
        .collect();
    let cube: Vec<(usize, usize)> = (0..16usize)
        .flat_map(|v| (0..4).map(move |b| (v, v ^ (1 << b))))
        .filter(|&(v, u)| v < u)
        .collect();
    let k44: Vec<(usize, usize)> = (0..4).flat_map(|a| (4..8).map(move |b| (a, b))).collect();
    let circulant: Vec<(usize, usize)> = (0..12)
        .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 3) % 12)])
        .collect();
    let families = [
        ("petersen", 10, &petersen),
        ("prism", 10, &prism),
        ("4-cube", 16, &cube),
        ("K4,4", 8, &k44),
        ("circulant 12 {1,3}", 12, &circulant),
    ];
    let mut rng = StdRng::seed_from_u64(10);
    for (name, n, edges) in families {
        let code = CanonicalCode::of(&undirected(n, edges, &identity(n)));
        for _ in 0..50 {
            let copy = undirected(n, edges, &shuffled(n, &mut rng));
            assert_eq!(CanonicalCode::of(&copy), code, "{name}");
        }
    }
    let (p, q) = (
        undirected(10, &petersen, &identity(10)),
        undirected(10, &prism, &identity(10)),
    );
    assert_eq!(invariant_hash(&p), invariant_hash(&q));
    assert_ne!(CanonicalCode::of(&p), CanonicalCode::of(&q));
}
